package colstore

import (
	"math/rand"
	"slices"
	"testing"
)

// TestBitcase12KernelsMatchScalar pins the bitcase-12 lane-word kernels to
// the scalar reference: ScanRange and every ScanShared member over ranges
// starting at each offset within a 16-row group and ending anywhere, so the
// unaligned head, the whole groups (a shared strip's boundary included) and
// the tail all run, with windows at the code domain's edges and empty ones.
func TestBitcase12KernelsMatchScalar(t *testing.T) {
	const n = shared12Strip*16*2 + 37
	v, _ := lcgFill(12, n, 12)
	rng := rand.New(rand.NewSource(12))
	windows := []SharedRange{{0, 4095}, {0, 0}, {4095, 4095}, {100, 3000}, {2048, 2049}, {7, 6}}
	for k := 0; k < 4; k++ {
		lo := rng.Uint32() & 4095
		windows = append(windows, SharedRange{lo, lo + rng.Uint32()%(4096-lo)})
	}
	for from := 0; from < 16; from++ {
		for _, to := range []int{from, from + 1, from + 15, from + 16, from + 17, shared12Strip*16 + 3, n - 16, n} {
			if to > n {
				continue
			}
			outs := v.ScanShared(windows, from, to, make([][]uint32, len(windows)))
			for m, w := range windows {
				want := v.scanRangeScalar(w.Lo, w.Hi, from, to, nil)
				if got := v.ScanRange(w.Lo, w.Hi, from, to, nil); !slices.Equal(got, want) {
					t.Fatalf("ScanRange [%d,%d] over [%d,%d): %d matches, want %d", w.Lo, w.Hi, from, to, len(got), len(want))
				}
				if !slices.Equal(outs[m], want) {
					t.Fatalf("ScanShared member [%d,%d] over [%d,%d): %d matches, want %d", w.Lo, w.Hi, from, to, len(outs[m]), len(want))
				}
			}
		}
	}
}
