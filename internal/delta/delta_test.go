package delta

import (
	"reflect"
	"sync"
	"testing"
)

func TestInsertUpdateVisibility(t *testing.T) {
	d := New(4, false)
	d.Insert(0, 10)
	d.Insert(2, 20)
	d.Update(1, 5, 99)
	d.Update(3, 5, 100) // later write to the same row wins

	if d.Rows() != 4 {
		t.Fatalf("rows = %d, want 4", d.Rows())
	}
	if d.InsertRows() != 2 {
		t.Fatalf("inserts = %d, want 2", d.InsertRows())
	}
	if v, ok := d.LatestUpdate(5); !ok || v != 100 {
		t.Fatalf("LatestUpdate(5) = %d,%v, want 100,true", v, ok)
	}
	if _, ok := d.LatestUpdate(6); ok {
		t.Fatal("row 6 has no update")
	}
	ins := d.AppendVisibleInserts(nil)
	if len(ins) != 2 || ins[0] != 10 || ins[1] != 20 {
		t.Fatalf("inserts = %v, want [10 20] (socket-major order)", ins)
	}
}

func TestSnapshotIsolatesLaterAppends(t *testing.T) {
	d := New(2, false)
	d.Insert(0, 1)
	d.Insert(1, 2)
	snap := d.Snapshot()
	d.Insert(0, 3) // after the watermark: not in snap
	if snap.TotalRows() != 2 || snap.TotalInserts() != 2 {
		t.Fatalf("snapshot rows=%d inserts=%d, want 2/2", snap.TotalRows(), snap.TotalInserts())
	}
	d.TruncateMerged(snap)
	if d.Rows() != 1 {
		t.Fatalf("post-truncate rows = %d, want 1 (the post-snapshot append survives)", d.Rows())
	}
	ins := d.AppendVisibleInserts(nil)
	if len(ins) != 1 || ins[0] != 3 {
		t.Fatalf("surviving inserts = %v, want [3]", ins)
	}
}

// TestRowsIntoMatchesSnapshot: RowsInto reads the watermarks Snapshot
// captures, into the caller's storage and without allocating.
func TestRowsIntoMatchesSnapshot(t *testing.T) {
	d := New(4, false)
	d.Insert(0, 1)
	d.Insert(2, 2)
	d.Update(2, 7, 3)
	var buf [4]int
	if got, want := d.RowsInto(buf[:0]), d.Snapshot().Rows; !reflect.DeepEqual(got, want) {
		t.Fatalf("RowsInto = %v, Snapshot rows = %v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { d.RowsInto(buf[:0]) }); n != 0 {
		t.Fatalf("RowsInto allocates %v times", n)
	}
}

func TestSyntheticCountsOnly(t *testing.T) {
	d := New(2, true)
	for i := 0; i < 10; i++ {
		d.Insert(i%2, 0)
	}
	d.Update(0, 3, 0)
	if d.Rows() != 11 || d.InsertRows() != 10 {
		t.Fatalf("rows=%d inserts=%d, want 11/10", d.Rows(), d.InsertRows())
	}
	if got := d.SizeBytes(); got != 11*RowBytes {
		t.Fatalf("size = %d, want %d (synthetic mode has no dictionary)", got, 11*RowBytes)
	}
	snap := d.Snapshot()
	d.TruncateMerged(snap)
	if d.Rows() != 0 || d.SizeBytes() != 0 {
		t.Fatalf("truncate left rows=%d size=%d", d.Rows(), d.SizeBytes())
	}
}

func TestSizeBytesCountsLocalDictionary(t *testing.T) {
	d := New(1, false)
	d.Insert(0, 7)
	d.Insert(0, 7) // same value: dictionary interned once
	d.Insert(0, 8)
	want := int64(3*RowBytes + 2*8)
	if got := d.SizeBytes(); got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
}

// TestTruncatePrunesLocalDictionary: merged-away values must leave the
// fragment-local dictionary (vids remapped for survivors), so SizeBytes does
// not inflate across merge cycles.
func TestTruncatePrunesLocalDictionary(t *testing.T) {
	d := New(1, false)
	for i := 0; i < 100; i++ {
		d.Insert(0, int64(i)) // 100 distinct values
	}
	snap := d.Snapshot()
	d.Insert(0, 500) // survives the truncate
	d.TruncateMerged(snap)
	if got, want := d.SizeBytes(), int64(RowBytes+8); got != want {
		t.Fatalf("size = %d after truncate, want %d (one row, one dict value)", got, want)
	}
	ins := d.AppendVisibleInserts(nil)
	if len(ins) != 1 || ins[0] != 500 {
		t.Fatalf("surviving insert = %v, want [500] (vid remap broken?)", ins)
	}
	// Full truncate resets the dictionary entirely.
	d.TruncateMerged(d.Snapshot())
	if d.SizeBytes() != 0 {
		t.Fatalf("size = %d after full truncate, want 0", d.SizeBytes())
	}
}

// TestUpdatesInBulk: the one-pass bulk variant must agree with per-row
// LatestUpdate and respect the snapshot bound.
func TestUpdatesInBulk(t *testing.T) {
	d := New(2, false)
	d.Update(0, 1, 10)
	d.Update(1, 1, 20) // wins by sequence
	d.Update(0, 3, 30)
	snap := d.Snapshot()
	d.Update(1, 3, 99) // after the snapshot: excluded from UpdatesIn(snap)

	ups := d.UpdatesIn(snap)
	if len(ups) != 2 || ups[1] != 20 || ups[3] != 30 {
		t.Fatalf("UpdatesIn = %v, want {1:20, 3:30}", ups)
	}
	if v, ok := d.LatestUpdate(3); !ok || v != 99 {
		t.Fatalf("LatestUpdate(3) = %d,%v, want the post-snapshot 99", v, ok)
	}
}

func TestMergeLatch(t *testing.T) {
	d := New(1, true)
	if !d.BeginMerge() {
		t.Fatal("first BeginMerge must win")
	}
	if d.BeginMerge() {
		t.Fatal("second BeginMerge must lose while the latch is held")
	}
	if !d.Merging() {
		t.Fatal("Merging() false while latched")
	}
	d.EndMerge()
	if !d.BeginMerge() {
		t.Fatal("BeginMerge must win again after EndMerge")
	}
	d.EndMerge()
}

// TestConcurrentAppendScanMerge exercises the concurrent write path under the
// race detector: appenders on every socket, readers snapshotting and walking
// visible rows, and a merger repeatedly folding the visible prefix. The
// assertions are liveness/consistency only — the point is that -race stays
// silent.
func TestConcurrentAppendScanMerge(t *testing.T) {
	d := New(4, false)
	const perWriter = 400
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if i%3 == 0 {
					d.Update(s, i, int64(i))
				} else {
					d.Insert(s, int64(s*perWriter+i))
				}
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := d.Snapshot()
				if snap.TotalInserts() > snap.TotalRows() {
					t.Error("snapshot inserts exceed rows")
					return
				}
				d.LatestUpdate(3)
				d.AppendVisibleInserts(nil)
				d.SizeBytes()
			}
		}()
	}
	merged := 0
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !d.BeginMerge() {
				continue
			}
			snap := d.Snapshot()
			merged += snap.TotalRows()
			d.TruncateMerged(snap)
			d.EndMerge()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	// Everything written is either merged away or still visible.
	if got := merged + d.Rows(); got != 4*perWriter {
		t.Fatalf("merged %d + remaining %d != written %d", merged, d.Rows(), 4*perWriter)
	}
}
