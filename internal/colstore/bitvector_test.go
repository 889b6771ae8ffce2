package colstore

import (
	"testing"
	"testing/quick"
)

func TestPackedVectorRoundTrip(t *testing.T) {
	for _, bc := range []uint{1, 3, 7, 8, 13, 17, 21, 26, 31, 32} {
		n := 257
		v := NewPackedVector(bc, n)
		max := uint32(1)<<bc - 1
		for i := 0; i < n; i++ {
			v.Set(i, uint32(i*2654435761)&max)
		}
		for i := 0; i < n; i++ {
			want := uint32(i*2654435761) & max
			if got := v.Get(i); got != want {
				t.Fatalf("bitcase %d pos %d: got %d, want %d", bc, i, got, want)
			}
		}
	}
}

func TestPackedVectorOverwrite(t *testing.T) {
	v := NewPackedVector(17, 10)
	v.Set(3, 12345)
	v.Set(3, 54321)
	if got := v.Get(3); got != 54321 {
		t.Fatalf("overwrite: got %d", got)
	}
	// Neighbours untouched.
	if v.Get(2) != 0 || v.Get(4) != 0 {
		t.Fatal("overwrite corrupted neighbours")
	}
}

func TestPackedVectorSetRejectsOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized value")
		}
	}()
	v := NewPackedVector(4, 4)
	v.Set(0, 16)
}

func TestScanRangeMatchesNaive(t *testing.T) {
	v := NewPackedVector(13, 1000)
	vals := make([]uint32, 1000)
	s := uint32(42)
	for i := range vals {
		s = s*1664525 + 1013904223
		vals[i] = s % 8000
		v.Set(i, vals[i])
	}
	for _, tc := range []struct{ lo, hi uint32 }{{0, 8000}, {100, 200}, {7999, 7999}, {500, 499}, {0, 0}} {
		got := v.ScanRange(tc.lo, tc.hi, 0, 1000, nil)
		var want []uint32
		for i, x := range vals {
			if x >= tc.lo && x <= tc.hi {
				want = append(want, uint32(i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("[%d,%d]: got %d matches, want %d", tc.lo, tc.hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("[%d,%d]: position %d differs", tc.lo, tc.hi, i)
			}
		}
	}
}

func TestScanRangeSubrange(t *testing.T) {
	v := packValues(8, []uint32{5, 10, 15, 20, 25, 30})
	got := v.ScanRange(10, 25, 2, 5, nil)
	want := []uint32{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCountRangeAgrees(t *testing.T) {
	v := NewPackedVector(20, 500)
	s := uint32(7)
	for i := 0; i < 500; i++ {
		s = s*1664525 + 1013904223
		v.Set(i, s%(1<<20))
	}
	lo, hi := uint32(1000), uint32(500000)
	if got, want := v.CountRange(lo, hi, 50, 450), len(v.ScanRange(lo, hi, 50, 450, nil)); got != want {
		t.Fatalf("CountRange = %d, ScanRange found %d", got, want)
	}
}

// Property: pack/unpack round-trips and scan agrees with a naive filter for
// random bitcases, values, and predicate ranges.
func TestPackedVectorProperty(t *testing.T) {
	f := func(seed uint32, bcRaw uint8, loRaw, hiRaw uint32) bool {
		bc := uint(bcRaw%32) + 1
		n := 64 + int(seed%200)
		max := uint32(1)<<bc - 1
		vals := make([]uint32, n)
		s := seed
		v := NewPackedVector(bc, n)
		for i := range vals {
			s = s*1664525 + 1013904223
			vals[i] = s & max
			v.Set(i, vals[i])
		}
		for i := range vals {
			if v.Get(i) != vals[i] {
				return false
			}
		}
		lo, hi := loRaw&max, hiRaw&max
		got := v.ScanRange(lo, hi, 0, n, nil)
		cnt := 0
		for i, x := range vals {
			if x >= lo && x <= hi {
				if cnt >= len(got) || got[cnt] != uint32(i) {
					return false
				}
				cnt++
			}
		}
		if cnt != len(got) {
			return false
		}
		return v.CountRange(lo, hi, 0, n) == cnt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
