package colstore

import (
	"testing"
	"testing/quick"
)

func testValues(n int, mod int64, seed uint32) []int64 {
	vals := make([]int64, n)
	s := seed
	for i := range vals {
		s = s*1664525 + 1013904223
		vals[i] = int64(s) % mod
	}
	return vals
}

func TestBuildDictionarySortedDistinct(t *testing.T) {
	c := Build("c", []int64{5, 3, 5, 1, 3, 9}, false)
	want := []int64{1, 3, 5, 9}
	if len(c.Dict) != len(want) {
		t.Fatalf("dict = %v, want %v", c.Dict, want)
	}
	for i := range want {
		if c.Dict[i] != want[i] {
			t.Fatalf("dict = %v, want %v", c.Dict, want)
		}
	}
	if c.Bitcase != 2 {
		t.Fatalf("bitcase = %d, want 2", c.Bitcase)
	}
	// Round-trip through vids.
	for i, v := range []int64{5, 3, 5, 1, 3, 9} {
		if got := c.Value(i); got != v {
			t.Fatalf("Value(%d) = %d, want %d", i, got, v)
		}
	}
}

func TestBuildSingleValueColumn(t *testing.T) {
	c := Build("c", []int64{7, 7, 7}, false)
	if len(c.Dict) != 1 || c.Bitcase != 1 {
		t.Fatalf("dict=%v bitcase=%d", c.Dict, c.Bitcase)
	}
}

func TestEncodePredicate(t *testing.T) {
	c := Build("c", []int64{10, 20, 30, 40, 50}, false)
	lo, hi, ok := c.EncodePredicate(15, 45)
	if !ok || c.Dict[lo] != 20 || c.Dict[hi] != 40 {
		t.Fatalf("EncodePredicate(15,45) = %d,%d,%v", lo, hi, ok)
	}
	// Exact bounds.
	lo, hi, ok = c.EncodePredicate(20, 40)
	if !ok || c.Dict[lo] != 20 || c.Dict[hi] != 40 {
		t.Fatalf("EncodePredicate(20,40) = %d,%d,%v", lo, hi, ok)
	}
	// Empty range.
	if _, _, ok := c.EncodePredicate(21, 29); ok {
		t.Fatal("expected no qualifying vids")
	}
	if _, _, ok := c.EncodePredicate(100, 200); ok {
		t.Fatal("expected no qualifying vids above domain")
	}
}

func TestScanVsIndexLookupAgree(t *testing.T) {
	vals := testValues(5000, 1000, 99)
	c := Build("c", vals, true)
	lo, hi, ok := c.EncodePredicate(100, 150)
	if !ok {
		t.Fatal("predicate should qualify")
	}
	scan := c.ScanPositions(lo, hi, 0, c.Rows, nil)
	idx := c.IndexLookupPositions(lo, hi, nil)
	if len(scan) != len(idx) {
		t.Fatalf("scan found %d, index found %d", len(scan), len(idx))
	}
	seen := make(map[uint32]bool, len(scan))
	for _, p := range scan {
		seen[p] = true
	}
	for _, p := range idx {
		if !seen[p] {
			t.Fatalf("index position %d not found by scan", p)
		}
	}
}

func TestIndexPostingsComplete(t *testing.T) {
	vals := testValues(1000, 50, 7)
	c := Build("c", vals, true)
	total := 0
	for vid := 0; vid < c.NumDistinct(); vid++ {
		ps := c.Idx.PositionsOf(uint32(vid))
		total += len(ps)
		for _, p := range ps {
			if c.IVec.Get(int(p)) != uint32(vid) {
				t.Fatalf("posting %d of vid %d holds vid %d", p, vid, c.IVec.Get(int(p)))
			}
		}
	}
	if total != c.Rows {
		t.Fatalf("postings cover %d rows, want %d", total, c.Rows)
	}
}

func TestMaterialize(t *testing.T) {
	vals := []int64{100, 200, 300, 400}
	c := Build("c", vals, false)
	out := make([]int64, 2)
	c.Materialize([]uint32{1, 3}, out)
	if out[0] != 200 || out[1] != 400 {
		t.Fatalf("Materialize = %v", out)
	}
}

func TestIVBytesForRows(t *testing.T) {
	c := Build("c", testValues(1000, 100000, 3), false)
	full := c.IVBytesForRows(0, c.Rows)
	if full != c.IVBytes() && full != c.IVBytes()-7 { // packed size rounds to words
		if full > c.IVBytes() {
			t.Fatalf("IVBytesForRows(all) = %d > packed size %d", full, c.IVBytes())
		}
	}
	half := c.IVBytesForRows(0, 500)
	if half <= 0 || half > full {
		t.Fatalf("IVBytesForRows(half) = %d", half)
	}
	// Halves sum to ~full (within a byte of rounding).
	h2 := c.IVBytesForRows(500, 1000)
	if s := half + h2; s < full || s > full+1 {
		t.Fatalf("halves sum %d, full %d", s, full)
	}
}

func TestPartitionHelpers(t *testing.T) {
	c := Build("c", testValues(100, 1000, 5), false)
	if c.NumPartitions() != 1 {
		t.Fatal("fresh column should have one partition")
	}
	from, to := c.PartitionBounds(0)
	if from != 0 || to != 100 {
		t.Fatalf("bounds = %d,%d", from, to)
	}
	c.Partitions = []int{0, 25, 50, 100}
	if c.NumPartitions() != 3 {
		t.Fatalf("partitions = %d", c.NumPartitions())
	}
	if f, tt := c.PartitionBounds(1); f != 25 || tt != 50 {
		t.Fatalf("PartitionBounds(1) = %d,%d", f, tt)
	}
}

// Property: dictionary encoding preserves values and order of the dictionary.
func TestDictionaryEncodingProperty(t *testing.T) {
	f := func(seed uint32, modRaw uint16) bool {
		mod := int64(modRaw%2000) + 1
		vals := testValues(300, mod, seed)
		c := Build("c", vals, false)
		for i, v := range vals {
			if c.Value(i) != v {
				return false
			}
		}
		for i := 1; i < len(c.Dict); i++ {
			if c.Dict[i] <= c.Dict[i-1] {
				return false
			}
		}
		// Bitcase is minimal.
		if len(c.Dict) > 1 && (1<<(c.Bitcase-1)) >= len(c.Dict) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
