package colstore

import (
	"fmt"
	"math/bits"
	"runtime"
	"testing"

	"numacs/internal/delta"
)

// TestSyntheticValueReadsPanic: every method that reads values panics on a
// synthetic column, naming the method and the column, instead of reading
// zeros; the same calls on a built column still work.
func TestSyntheticValueReadsPanic(t *testing.T) {
	cases := []struct {
		method string
		call   func(c *Column)
	}{
		{"Value", func(c *Column) { c.Value(3) }},
		{"EncodePredicate", func(c *Column) { c.EncodePredicate(0, 10) }},
		{"ScanPositions", func(c *Column) { c.ScanPositions(0, 5, 0, c.Rows, nil) }},
		{"IndexLookupPositions", func(c *Column) { c.IndexLookupPositions(0, 5, nil) }},
		{"Materialize", func(c *Column) { c.Materialize([]uint32{1, 4, 9}, make([]int64, 3)) }},
		{"MaterializeRange", func(c *Column) { c.MaterializeRange(10, 20, make([]int64, 10)) }},
		{"CountMatchesWithDelta", func(c *Column) { c.CountMatchesWithDelta(0, 10) }},
		{"MergedValuesAt", func(c *Column) { c.MergedValuesAt(delta.Snapshot{}) }},
		{"BuildIndex", func(c *Column) { c.BuildIndex() }},
		{"Reencode", func(c *Column) { c.Reencode([]int64{4, 2, 4}) }},
	}
	for _, tc := range cases {
		t.Run(tc.method, func(t *testing.T) {
			want := "colstore: " + tc.method + " on synthetic column syn"
			if got := panicOf(func() { tc.call(NewSynthetic("syn", 1000, 50, true)) }); got != want {
				t.Fatalf("synthetic column: panic %v, want %q", got, want)
			}
			if got := panicOf(func() { tc.call(Build("real", testValues(1000, 50, 1), true)) }); got != nil {
				t.Fatalf("built column: panic %v", got)
			}
		})
	}
	t.Run("PositionsOf", func(t *testing.T) {
		want := "colstore: PositionsOf on a size-only index"
		if got := panicOf(func() { NewSynthetic("syn", 1000, 50, true).Idx.PositionsOf(0) }); got != want {
			t.Fatalf("size-only index: panic %v, want %q", got, want)
		}
		if got := panicOf(func() { Build("real", testValues(1000, 50, 1), true).Idx.PositionsOf(0) }); got != nil {
			t.Fatalf("built index: panic %v", got)
		}
	})
}

// panicOf runs f and returns what it panicked with (nil if it returned).
func panicOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestSyntheticSizesMatchArrays pins a synthetic column's sizes to those of
// the arrays a column of its shape holds — a packed IV of its bitcase, an
// 8-byte value per expected distinct value and an index of #vids + 1 + #rows
// uint32s — over a spread of rows and domains, with and without an index,
// and again after ResizeSynthetic and PhysicallyPartition.
func TestSyntheticSizesMatchArrays(t *testing.T) {
	for _, rows := range []int{1, 7, 1000, 65_537, 1_000_000} {
		for _, domain := range []int64{1, 2, 50, 1 << 12, 1 << 21} {
			for _, withIndex := range []bool{false, true} {
				c := NewSynthetic("syn", rows, domain, withIndex)
				checkSyntheticSizes(t, c, rows, domain, withIndex)

				grown := rows + rows/3 + 1
				c.ResizeSynthetic(grown)
				checkSyntheticSizes(t, c, grown, domain, withIndex)

				if rows < 4 {
					continue
				}
				pp := NewTable("t", []*Column{NewSynthetic("syn", rows, domain, withIndex)}).PhysicallyPartition(4)
				for _, p := range pp.Parts {
					checkSyntheticSizes(t, p.Columns[0], p.RowTo-p.RowFrom, domain, withIndex)
				}
			}
		}
	}
}

// packedWordBytes is the bytes of v's packed words, without the padding word.
func packedWordBytes(v *PackedVector) int64 { return int64(len(v.words)-1) * 8 }

func checkSyntheticSizes(t *testing.T, c *Column, rows int, domain int64, withIndex bool) {
	t.Helper()
	distinct := ExpectedDistinct(rows, domain)
	bc := uint(bits.Len(uint(distinct - 1)))
	if bc == 0 {
		bc = 1
	}
	where := func() string { return fmt.Sprintf("%s rows %d domain %d", c.Name, rows, domain) }
	if c.Rows != rows || c.Bitcase != bc || c.IVec != nil || c.Dict != nil {
		t.Fatalf("%s: rows %d bitcase %d (IVec nil %v, Dict nil %v), want %d, %d and no arrays",
			where(), c.Rows, c.Bitcase, c.IVec == nil, c.Dict == nil, rows, bc)
	}
	if got, want := c.IVBytes(), packedWordBytes(NewPackedVector(bc, rows)); got != want {
		t.Fatalf("%s: IVBytes %d, want %d", where(), got, want)
	}
	if c.NumDistinct() != distinct || c.DictBytes() != int64(distinct)*8 {
		t.Fatalf("%s: NumDistinct %d DictBytes %d, want %d and %d", where(), c.NumDistinct(), c.DictBytes(), distinct, distinct*8)
	}
	want := c.IVBytes() + c.DictBytes()
	if (c.Idx != nil) != withIndex {
		t.Fatalf("%s: has index %v, want %v", where(), c.Idx != nil, withIndex)
	}
	if withIndex {
		if got, ix := c.Idx.SizeBytes(), int64(distinct+1+rows)*4; got != ix {
			t.Fatalf("%s: index %d bytes, want %d", where(), got, ix)
		}
		want += c.Idx.SizeBytes()
	}
	if c.TotalBytes() != want {
		t.Fatalf("%s: TotalBytes %d, want %d", where(), c.TotalBytes(), want)
	}
}

// TestBuiltSizesMatchArrays: a built column's sizes are its arrays' sizes,
// also after Reencode and PhysicallyPartition rebuild them.
func TestBuiltSizesMatchArrays(t *testing.T) {
	check := func(c *Column) {
		t.Helper()
		if c.IVBytes() != packedWordBytes(c.IVec) || c.NumDistinct() != len(c.Dict) || c.DictBytes() != int64(len(c.Dict))*8 {
			t.Fatalf("IVBytes %d vs %d, NumDistinct %d vs %d", c.IVBytes(), packedWordBytes(c.IVec), c.NumDistinct(), len(c.Dict))
		}
		if c.Idx.SizeBytes() != int64(len(c.Idx.Offsets)+len(c.Idx.Postings))*4 {
			t.Fatalf("index %d bytes for %d offsets and %d postings", c.Idx.SizeBytes(), len(c.Idx.Offsets), len(c.Idx.Postings))
		}
	}
	c := Build("c", testValues(5000, 300, 2), true)
	check(c)
	c.Reencode(testValues(7000, 20, 3))
	check(c)
	for _, p := range NewTable("t", []*Column{c}).PhysicallyPartition(3).Parts {
		check(p.Columns[0])
	}
}

// syntheticSink keeps TestNewSyntheticAllocs' columns on the heap.
var syntheticSink *Column

// TestNewSyntheticAllocs: the heap bytes NewSynthetic allocates do not grow
// with rows — a million-row column costs what a thousand-row one does.
func TestNewSyntheticAllocs(t *testing.T) {
	perCall := func(rows int) float64 {
		const runs = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			syntheticSink = NewSynthetic("syn", rows, 1<<21, true)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := perCall(1000), perCall(1_000_000)
	t.Logf("NewSynthetic: %.0f B at 1k rows, %.0f B at 1M rows", small, large)
	if large > small+64 || large > 1024 {
		t.Fatalf("NewSynthetic allocates %.0f B at 1M rows, %.0f B at 1k rows", large, small)
	}
}
