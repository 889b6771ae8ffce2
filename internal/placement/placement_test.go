package placement

import (
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/delta"
	"numacs/internal/memsim"
	"numacs/internal/topology"
)

// TestMergeDeltaRealColumn: merging a real column's delta must fold updates
// and inserts into a correctly re-encoded main — values queryable through
// the plain main kernels afterwards — and truncate the delta.
func TestMergeDeltaRealColumn(t *testing.T) {
	p := New(topology.FourSocketIvyBridge())
	c := testColumn(1000, 50, 7, true)
	p.PlaceColumnOnSocket(c, 1)

	c.Delta = delta.New(4, false)
	c.Delta.Update(0, 5, 1234)
	c.Delta.Update(2, 5, 777) // later write to the same row wins
	c.Delta.Insert(3, 999)
	c.Delta.Insert(1, 1000)
	wantMatches := c.CountMatchesWithDelta(700, 1300)
	snap := c.Delta.Snapshot()
	// A row appended after the merge snapshot (i.e. while the background
	// merge flow is in flight) must stay in the delta for the next round.
	c.Delta.Insert(0, 800)

	rows, pages := p.MergeDelta(c, snap)
	if rows != 4 {
		t.Fatalf("merged %d rows, want 4", rows)
	}
	if pages <= 0 {
		t.Fatal("merge copied no pages")
	}
	if c.Rows != 1002 {
		t.Fatalf("rows = %d, want 1002 (two inserts)", c.Rows)
	}
	if c.Value(5) != 777 {
		t.Fatalf("row 5 = %d after merge, want the latest update 777", c.Value(5))
	}
	// Inserts appended in socket-major order.
	if c.Value(1000) != 1000 || c.Value(1001) != 999 {
		t.Fatalf("inserted rows = %d,%d, want 1000,999", c.Value(1000), c.Value(1001))
	}
	if c.DeltaRows() != 1 {
		t.Fatalf("delta rows = %d after merge, want 1 (the post-snapshot append survives)", c.DeltaRows())
	}
	if n := c.CountMatchesWithDelta(800, 800); n != 1 {
		t.Fatalf("post-snapshot insert lost: %d matches for its value", n)
	}
	// The union-scan count is preserved by the merge for the snapshot rows
	// (now served by main only; the surviving insert at 800 scans via delta).
	got := 0
	loVid, hiVid, ok := c.EncodePredicate(700, 1300)
	if ok {
		got = len(c.ScanPositions(loVid, hiVid, 0, c.Rows, nil))
	}
	if got != wantMatches {
		t.Fatalf("post-merge matches %d != pre-merge union count %d", got, wantMatches)
	}
	// Index was rebuilt for the new row count.
	if c.Idx == nil || len(c.Idx.Postings) != c.Rows {
		t.Fatal("index not rebuilt to the merged size")
	}
	// The rebuilt main lives on the previous home socket.
	if s := c.IVPSM.MajoritySocket(); s != 1 {
		t.Fatalf("merged main on socket %d, want 1", s)
	}
}

// TestMergeDeltaRebuildsReplicas: merging a replicated column must
// invalidate every copy and rebuild it at the merged size on the same
// sockets, with the allocator's books balanced.
func TestMergeDeltaRebuildsReplicas(t *testing.T) {
	p := New(topology.FourSocketIvyBridge())
	c := colstore.NewSynthetic("c", 2000, 64, false) // size-only rebuild path
	p.PlaceReplicated(c, []int{0, 2, 3})

	c.Delta = delta.New(4, true)
	for i := 0; i < 500; i++ {
		c.Delta.Insert(i%4, 0)
	}
	before := make([]int64, 4)
	for s := range before {
		before[s] = p.Alloc.PagesOnSocket(s)
	}
	if _, pages := p.MergeDelta(c, c.Delta.Snapshot()); pages <= 0 {
		t.Fatal("merge copied no pages")
	}
	if c.Rows != 2500 {
		t.Fatalf("rows = %d, want 2500", c.Rows)
	}
	if got := append([]int(nil), c.ReplicaSockets...); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("replica sockets %v, want [0 2 3]", got)
	}
	if len(c.Replicas) != 2 {
		t.Fatalf("replica metadata %d entries, want 2", len(c.Replicas))
	}
	for _, r := range c.Replicas {
		if r.IVRange.Bytes != c.IVBytes() || r.DictRange.Bytes != c.DictBytes() {
			t.Fatalf("replica on S%d not rebuilt at merged size", r.Socket)
		}
	}
	// Fragments emptied and their simulated allocations released.
	for s := 0; s < 4; s++ {
		if c.Delta.Fragment(s).Range.Bytes != 0 {
			t.Fatalf("socket %d fragment range not released", s)
		}
	}
}

// TestMergeDeltaPreservesIVPPartitions: merging an IVP-partitioned column
// re-partitions the grown IV across the same sockets.
func TestMergeDeltaPreservesIVPPartitions(t *testing.T) {
	p := New(topology.FourSocketIvyBridge())
	c := colstore.NewSynthetic("c", 40_000, 64, false)
	p.PlaceColumnOnSocket(c, 0)
	p.PlaceIVP(c, []int{1, 3})

	c.Delta = delta.New(4, true)
	for i := 0; i < 4000; i++ {
		c.Delta.Insert(0, 0)
	}
	p.MergeDelta(c, c.Delta.Snapshot())
	if c.Rows != 44_000 {
		t.Fatalf("rows = %d, want 44000", c.Rows)
	}
	if c.NumPartitions() != 2 {
		t.Fatalf("partitions = %d, want 2", c.NumPartitions())
	}
	f0, t0 := c.PartitionBounds(0)
	f1b, t1 := c.PartitionBounds(1)
	if f0 != 0 || t0 != 22_000 || f1b != 22_000 || t1 != 44_000 {
		t.Fatalf("bounds not recomputed: [%d,%d) [%d,%d)", f0, t0, f1b, t1)
	}
}

// TestEnsureDeltaCapacityGrows: the fragment's simulated allocation doubles
// on the fragment's own socket and always covers the committed bytes.
func TestEnsureDeltaCapacityGrows(t *testing.T) {
	p := New(topology.FourSocketIvyBridge())
	d := delta.New(4, true)
	f := d.Fragment(2)
	for i := 0; i < 3000; i++ {
		d.Insert(2, 0)
		p.EnsureDeltaCapacity(f)
		if f.Range.Bytes < f.SizeBytes() {
			t.Fatalf("range %d bytes < fragment %d bytes", f.Range.Bytes, f.SizeBytes())
		}
	}
	if got := p.Alloc.MajoritySocket(f.Range); got != 2 {
		t.Fatalf("fragment allocated on socket %d, want 2", got)
	}
}

func testColumn(rows int, mod int64, seed uint32, withIndex bool) *colstore.Column {
	vals := make([]int64, rows)
	s := seed
	for i := range vals {
		s = s*1664525 + 1013904223
		vals[i] = int64(s) % mod
	}
	return colstore.Build("c", vals, withIndex)
}

func testTable(rows, cols int) *colstore.Table {
	columns := make([]*colstore.Column, cols)
	for j := range columns {
		columns[j] = testColumn(rows, int64(64+j), uint32(j+1), false)
	}
	for j := range columns {
		columns[j].Name = "COL" + string(rune('0'+j))
	}
	return colstore.NewTable("t", columns)
}

func TestPlaceColumnOnSocket(t *testing.T) {
	p := New(topology.FourSocketIvyBridge())
	c := testColumn(50000, 1000, 1, true)
	p.PlaceColumnOnSocket(c, 2)
	if got := c.IVPSM.MajoritySocket(); got != 2 {
		t.Fatalf("IV on socket %d", got)
	}
	if got := c.DictPSM.MajoritySocket(); got != 2 {
		t.Fatalf("dict on socket %d", got)
	}
	if got := c.IXPSM.MajoritySocket(); got != 2 {
		t.Fatalf("IX on socket %d", got)
	}
	if c.NumPartitions() != 1 {
		t.Fatal("RR column should be unpartitioned")
	}
}

func TestPlaceRRRoundRobin(t *testing.T) {
	p := New(topology.FourSocketIvyBridge())
	tbl := testTable(20000, 8)
	p.PlaceRR(tbl)
	for i, c := range tbl.Parts[0].Columns {
		if got := c.IVPSM.MajoritySocket(); got != i%4 {
			t.Fatalf("column %d on socket %d, want %d", i, got, i%4)
		}
	}
}

func TestPlaceIVPPartitionsIV(t *testing.T) {
	m := topology.FourSocketIvyBridge()
	p := New(m)
	c := testColumn(200000, 100000, 3, true)
	p.PlaceIVP(c, []int{0, 1, 2, 3})
	if c.NumPartitions() != 4 {
		t.Fatalf("partitions = %d", c.NumPartitions())
	}
	// Each quarter of the IV should live on its socket.
	for i := 0; i < 4; i++ {
		from, to := c.PartitionBounds(i)
		mid := (from + to) / 2
		addr := c.IVRange.Start + memsim.Addr(c.IVOffsetForRow(mid))
		if got := c.IVPSM.LocationOf(addr); got != i {
			t.Fatalf("partition %d row %d resolves to socket %d", i, mid, got)
		}
	}
	// Dictionary and IX interleaved: pages spread across all sockets.
	dictSum := c.DictPSM.Summary()
	nonzero := 0
	for _, pages := range dictSum {
		if pages > 0 {
			nonzero++
		}
	}
	if nonzero != 4 {
		t.Fatalf("dictionary not interleaved across 4 sockets: %v", dictSum)
	}
}

func TestPlaceIVPSubsetOfSockets(t *testing.T) {
	p := New(topology.FourSocketIvyBridge())
	c := testColumn(100000, 50000, 5, false)
	p.PlaceIVP(c, []int{1, 3})
	if c.NumPartitions() != 2 {
		t.Fatalf("partitions = %d", c.NumPartitions())
	}
	from, to := c.PartitionBounds(0)
	addr := c.IVRange.Start + memsim.Addr(c.IVOffsetForRow((from+to)/2))
	if got := c.IVPSM.LocationOf(addr); got != 1 {
		t.Fatalf("first part on %d, want 1", got)
	}
}

func TestPlaceTableIVPSpreadsStartSockets(t *testing.T) {
	p := New(topology.FourSocketIvyBridge())
	tbl := testTable(40000, 4)
	p.PlaceTableIVP(tbl, 2)
	// Column i's first partition should be on socket i%4.
	for i, c := range tbl.Parts[0].Columns {
		from, to := c.PartitionBounds(0)
		addr := c.IVRange.Start + memsim.Addr(c.IVOffsetForRow((from+to)/2))
		if got := c.IVPSM.LocationOf(addr); got != i%4 {
			t.Fatalf("column %d first part on socket %d, want %d", i, got, i%4)
		}
	}
}

func TestPlacePP(t *testing.T) {
	p := New(topology.FourSocketIvyBridge())
	tbl := testTable(40000, 2)
	pp := p.PlacePP(tbl, 4)
	if pp.NumParts() != 4 {
		t.Fatalf("parts = %d", pp.NumParts())
	}
	for i, part := range pp.Parts {
		if part.HomeSocket != i%4 {
			t.Fatalf("part %d home = %d", i, part.HomeSocket)
		}
		for _, c := range part.Columns {
			if got := c.IVPSM.MajoritySocket(); got != part.HomeSocket {
				t.Fatalf("part %d column IV on %d", i, got)
			}
			if got := c.DictPSM.MajoritySocket(); got != part.HomeSocket {
				t.Fatalf("part %d dict on %d (PP keeps dictionaries local)", i, got)
			}
		}
	}
}

func TestRepartitionIVPMovesOnlyDelta(t *testing.T) {
	p := New(topology.FourSocketIvyBridge())
	c := testColumn(200000, 100000, 7, false)
	p.PlaceIVP(c, []int{0, 1})
	moved := p.RepartitionIVP(c, []int{0, 1, 2, 3})
	if moved <= 0 {
		t.Fatal("repartition should move pages")
	}
	// Repartitioning to the same layout moves nothing further for the IV,
	// but the dictionary interleave is already in place too.
	again := p.RepartitionIVP(c, []int{0, 1, 2, 3})
	if again != 0 {
		t.Fatalf("idempotent repartition moved %d pages", again)
	}
}

func TestIVPCostMuchCheaperThanPP(t *testing.T) {
	tbl := testTable(100000, 8)
	ivp, pp := IVPCost(tbl), PPCost(tbl)
	if ivp <= 0 || pp <= 0 {
		t.Fatalf("costs: ivp=%v pp=%v", ivp, pp)
	}
	// Section 6.2.3: PP ~18 min vs IVP ~4 min, i.e. roughly 4-5x slower.
	if ratio := pp / ivp; ratio < 2 {
		t.Fatalf("PP/IVP cost ratio = %.2f, expected PP to be much slower", ratio)
	}
}

func TestPPMemoryOverhead(t *testing.T) {
	// Low-cardinality data: PP duplicates dictionary entries across parts.
	cols := []*colstore.Column{testColumn(100000, 5000, 9, false)}
	cols[0].Name = "COLX"
	tbl := colstore.NewTable("t", cols)
	base := tbl.TotalBytes()
	p := New(topology.FourSocketIvyBridge())
	pp := p.PlacePP(tbl, 4)
	if pp.TotalBytes() <= base {
		t.Fatalf("PP should consume more memory: %d vs %d", pp.TotalBytes(), base)
	}
}
