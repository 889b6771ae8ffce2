package colstore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"numacs/internal/delta"
)

// lcgFill fills a fresh packed vector and its mirror slice with a
// deterministic pseudo-random code stream.
func lcgFill(bc uint, n int, seed uint32) (*PackedVector, []uint32) {
	v := NewPackedVector(bc, n)
	vals := make([]uint32, n)
	max := uint32(uint64(1)<<bc - 1)
	s := seed
	for i := range vals {
		s = s*1664525 + 1013904223
		vals[i] = s & max
		v.Set(i, vals[i])
	}
	return v, vals
}

// TestGet64Window pins the two-word window load against bit arithmetic on
// the mirror values, at offsets straddling word boundaries.
func TestGet64Window(t *testing.T) {
	for _, bc := range []uint{1, 5, 12, 31, 32} {
		v, vals := lcgFill(bc, 300, 99)
		mask := uint64(1)<<bc - 1
		for i := 0; i < 300; i++ {
			got := v.Get64(uint64(i)*uint64(bc)) & mask
			if got != uint64(vals[i]) {
				t.Fatalf("bitcase %d row %d: Get64 window = %d, want %d", bc, i, got, vals[i])
			}
		}
	}
}

// TestUnpackBatchMatchesGet covers every bitcase 1..32 with batch spans that
// start unaligned and end mid-batch: the batched decode must agree with the
// scalar Get at every position.
func TestUnpackBatchMatchesGet(t *testing.T) {
	for bc := uint(1); bc <= 32; bc++ {
		n := 2*BatchSize + 137
		v, vals := lcgFill(bc, n, uint32(bc)*2654435761)
		for _, from := range []int{0, 1, 63, 64, 65, BatchSize - 1, BatchSize, BatchSize + 7} {
			for _, span := range []int{0, 1, 31, BatchSize, BatchSize + 13, n - from} {
				if from+span > n {
					continue
				}
				dst := make([]uint32, span)
				v.UnpackBatch(from, dst)
				for i, got := range dst {
					if got != vals[from+i] {
						t.Fatalf("bitcase %d from=%d span=%d: pos %d = %d, want %d",
							bc, from, span, i, got, vals[from+i])
					}
				}
			}
		}
	}
}

// TestBatchedKernelsMatchScalar is the differential property test of the
// tentpole: for random bitcases, ranges, and batch-boundary offsets
// (including spans that are not a multiple of BatchSize), every batched
// kernel must be bit-identical to its retained scalar reference.
func TestBatchedKernelsMatchScalar(t *testing.T) {
	f := func(seed uint32, bcRaw uint8, loRaw, hiRaw uint32, fromRaw, spanRaw uint16) bool {
		bc := uint(bcRaw%32) + 1
		n := BatchSize + int(seed%uint32(2*BatchSize+100))
		v, _ := lcgFill(bc, n, seed)
		max := uint32(uint64(1)<<bc - 1)
		lo, hi := loRaw&max, hiRaw&max
		from := int(fromRaw) % n
		to := from + int(spanRaw)%(n-from) + 1

		want := v.scanRangeScalar(lo, hi, from, to, nil)
		got := v.ScanRange(lo, hi, from, to, nil)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		if v.CountRange(lo, hi, from, to) != v.countRangeScalar(lo, hi, from, to) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestScanSharedMatchesPrivateScans pins the N-predicate shared kernel:
// every member's positions must be bit-identical to a private ScanRange with
// the member's window, including empty (Lo > Hi) windows.
func TestScanSharedMatchesPrivateScans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		bc := uint(rng.Intn(32)) + 1
		n := BatchSize/2 + rng.Intn(3*BatchSize)
		v, _ := lcgFill(bc, n, rng.Uint32())
		max := uint32(uint64(1)<<bc - 1)
		from := rng.Intn(n)
		to := from + rng.Intn(n-from) + 1
		preds := make([]SharedRange, 1+rng.Intn(8))
		for i := range preds {
			preds[i] = SharedRange{Lo: rng.Uint32() & max, Hi: rng.Uint32() & max}
			// Leave some genuinely empty windows in place.
			if rng.Intn(4) > 0 && preds[i].Lo > preds[i].Hi {
				preds[i].Lo, preds[i].Hi = preds[i].Hi, preds[i].Lo
			}
		}
		outs := v.ScanShared(preds, from, to, make([][]uint32, len(preds)))
		for m, pr := range preds {
			want := v.scanRangeScalar(pr.Lo, pr.Hi, from, to, nil)
			if len(outs[m]) != len(want) {
				t.Fatalf("iter %d member %d: %d matches, want %d", iter, m, len(outs[m]), len(want))
			}
			for i := range want {
				if outs[m][i] != want[i] {
					t.Fatalf("iter %d member %d: position %d differs", iter, m, i)
				}
			}
		}
	}
}

// TestMaterializeBatchedVsScalar covers the three position-list shapes the
// output phase sees: dense sorted (scan results), sparse sorted, and
// vid-major unsorted (index lookups).
func TestMaterializeBatchedVsScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, 3*BatchSize+77)
	for i := range vals {
		vals[i] = rng.Int63n(5000)
	}
	c := Build("m", vals, true)
	shapes := map[string][]uint32{}
	var dense []uint32
	for i := 0; i < c.Rows; i++ {
		if rng.Intn(10) > 0 {
			dense = append(dense, uint32(i))
		}
	}
	shapes["dense"] = dense
	var sparse []uint32
	for i := 0; i < c.Rows; i += 1 + rng.Intn(40) {
		sparse = append(sparse, uint32(i))
	}
	shapes["sparse"] = sparse
	lo, hi, _ := c.EncodePredicate(0, 2500)
	shapes["vid-major"] = c.IndexLookupPositions(lo, hi, nil)
	shapes["empty"] = nil
	for name, positions := range shapes {
		got := make([]int64, len(positions))
		want := make([]int64, len(positions))
		c.Materialize(positions, got)
		c.materializeScalar(positions, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: position %d: got %d, want %d", name, i, got[i], want[i])
			}
		}
	}
	// MaterializeRange against per-row Value.
	out := make([]int64, c.Rows)
	c.MaterializeRange(0, c.Rows, out)
	for i := range out {
		if out[i] != c.Value(i) {
			t.Fatalf("MaterializeRange row %d: got %d, want %d", i, out[i], c.Value(i))
		}
	}
}

// deltaColumn builds a real column with a delta holding both updates and
// inserts, the fixture for the delta-union differential tests.
func deltaColumn(t *testing.T, rows int, seed int64) *Column {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = rng.Int63n(10_000)
	}
	c := Build("d", vals, false)
	c.Delta = delta.New(2, false)
	for i := 0; i < rows/4; i++ {
		c.Delta.Update(rng.Intn(2), rng.Intn(rows), rng.Int63n(10_000))
	}
	for i := 0; i < rows/8; i++ {
		c.Delta.Insert(rng.Intn(2), rng.Int63n(10_000))
	}
	return c
}

// TestCountMatchesWithDeltaBatchedVsScalar pins the compare-on-codes count
// (vid-window count + per-updated-row correction) against the retained
// per-row scalar union scan, across predicate windows including empty and
// all-matching ones.
func TestCountMatchesWithDeltaBatchedVsScalar(t *testing.T) {
	for _, rows := range []int{100, BatchSize + 33, 2*BatchSize + 1} {
		c := deltaColumn(t, rows, int64(rows))
		for _, pr := range [][2]int64{{0, 10_000}, {2000, 4000}, {9999, 9999}, {5000, 4000}, {-50, -1}} {
			got := c.CountMatchesWithDelta(pr[0], pr[1])
			want := c.countMatchesWithDeltaScalar(pr[0], pr[1])
			if got != want {
				t.Fatalf("rows=%d [%d,%d]: got %d, want %d", rows, pr[0], pr[1], got, want)
			}
		}
		// A column that was never written takes the pure batched-count path.
		noDelta := Build("nd", []int64{5, 1, 5, 9, 5}, false)
		if got, want := noDelta.CountMatchesWithDelta(5, 9), noDelta.countMatchesWithDeltaScalar(5, 9); got != want {
			t.Fatalf("no-delta: got %d, want %d", got, want)
		}
	}
}

// TestMergedValuesAtBatchedVsScalar pins the batched merge materialization
// (bulk main decode + overlay) against the scalar reference, at both the
// current watermark and an older snapshot.
func TestMergedValuesAtBatchedVsScalar(t *testing.T) {
	c := deltaColumn(t, BatchSize+200, 42)
	snaps := []delta.Snapshot{c.Delta.Snapshot()}
	// Grow the delta past the first snapshot so snapshot-bounding is
	// exercised too.
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 50; i++ {
		c.Delta.Update(rng.Intn(2), rng.Intn(c.Rows), rng.Int63n(10_000))
		c.Delta.Insert(rng.Intn(2), rng.Int63n(10_000))
	}
	snaps = append(snaps, c.Delta.Snapshot())
	for si, snap := range snaps {
		got := c.MergedValuesAt(snap)
		want := c.mergedValuesAtScalar(snap)
		if len(got) != len(want) {
			t.Fatalf("snap %d: %d values, want %d", si, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("snap %d: row %d: got %d, want %d", si, i, got[i], want[i])
			}
		}
	}
}
