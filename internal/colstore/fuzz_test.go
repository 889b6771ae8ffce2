package colstore

import (
	"testing"
)

// FuzzScanRange differentially fuzzes the word-parallel batch kernels against
// their retained scalar references. The batch kernels share the packed-field
// carry trick (rangePlan), so one fuzz target covers both result formats:
// position list (ScanRange) and count (CountRange). The raw inputs are normalized into the kernels' documented
// domain — bitcase in [1,32], predicate bounds under 1<<bits, scan window
// inside [0,n] — but lo > hi and empty windows are kept, since those early
// returns are part of the contract.
func FuzzScanRange(f *testing.F) {
	// One seed per structurally distinct bitcase family: 1 (64 codes/word),
	// 3 and 7 (odd, word-straddling codes), 12 (the benchmark bitcase),
	// 13 and 21 (odd k, unused tail bits), 31 and 32 (1-2 codes/word).
	f.Add(uint64(1), uint32(0), uint32(1), uint16(0), uint16(4096), uint16(4096), uint64(1))
	f.Add(uint64(3), uint32(2), uint32(5), uint16(7), uint16(900), uint16(1000), uint64(2))
	f.Add(uint64(7), uint32(10), uint32(100), uint16(63), uint16(65), uint16(128), uint64(3))
	f.Add(uint64(12), uint32(100), uint32(3000), uint16(0), uint16(4096), uint16(4096), uint64(4))
	f.Add(uint64(13), uint32(8000), uint32(100), uint16(1), uint16(4095), uint16(4096), uint64(5))
	f.Add(uint64(21), uint32(0), uint32(1<<21-1), uint16(5), uint16(5), uint16(64), uint64(6))
	f.Add(uint64(31), uint32(1<<30), uint32(1<<31), uint16(0), uint16(100), uint16(100), uint64(7))
	f.Add(uint64(32), uint32(0), uint32(1<<31), uint16(9), uint16(77), uint16(200), uint64(8))
	f.Fuzz(func(t *testing.T, bitsRaw uint64, lo, hi uint32, fromRaw, toRaw, nRaw uint16, seed uint64) {
		bits := uint(1 + bitsRaw%32)
		dom := uint64(1) << bits
		n := 1 + int(nRaw)%4096
		from := int(fromRaw) % (n + 1)
		to := int(toRaw) % (n + 1)
		if from > to {
			from, to = to, from
		}
		lo = uint32(uint64(lo) % dom)
		hi = uint32(uint64(hi) % dom)

		v := NewPackedVector(bits, n)
		x := seed
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			v.Set(i, uint32(x>>32)&uint32(dom-1))
		}

		got := v.ScanRange(lo, hi, from, to, nil)
		want := v.scanRangeScalar(lo, hi, from, to, nil)
		if len(got) != len(want) {
			t.Fatalf("bits=%d n=%d [%d,%d] rows [%d,%d): batch found %d positions, scalar %d",
				bits, n, lo, hi, from, to, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("bits=%d n=%d [%d,%d] rows [%d,%d): position %d: batch %d, scalar %d",
					bits, n, lo, hi, from, to, i, got[i], want[i])
			}
		}

		if gotC, wantC := v.CountRange(lo, hi, from, to), v.countRangeScalar(lo, hi, from, to); gotC != wantC {
			t.Fatalf("bits=%d n=%d [%d,%d] rows [%d,%d): count: batch %d, scalar %d",
				bits, n, lo, hi, from, to, gotC, wantC)
		}
	})
}
