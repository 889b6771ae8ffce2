package psm

import (
	"math/rand"
	"slices"
	"testing"

	"numacs/internal/memsim"
)

// socketBytesRef is the page-by-page SocketBytes: one LocationOf binary
// search per page of the subrange, into a fresh MaxSockets slice. It is the
// oracle the range walk is checked against.
func socketBytesRef(p *PSM, r memsim.Range, off, bytes int64) []int64 {
	out := make([]int64, MaxSockets)
	if bytes <= 0 {
		return out[:0]
	}
	sub := r.Subrange(off, bytes)
	maxSocket := 0
	first := sub.Start.PageIndex()
	for i := int64(0); i < sub.Pages(); i++ {
		page := first + uint64(i)
		s := p.LocationOf(memsim.Addr(page * memsim.PageSize))
		if s < 0 {
			continue
		}
		pageStart := memsim.Addr(page * memsim.PageSize)
		lo, hi := pageStart, pageStart+memsim.PageSize
		if sub.Start > lo {
			lo = sub.Start
		}
		if sub.End() < hi {
			hi = sub.End()
		}
		out[s] += int64(hi - lo)
		if s > maxSocket {
			maxSocket = s
		}
	}
	return out[:maxSocket+1]
}

// randomPSM builds a PSM over three allocations on a machine of 2..8
// sockets. The middle allocation is never tracked, and the guard pages
// between allocations are gaps too. Pages are placed plainly or interleaved
// (k = 2..4), then reshaped with Remove, MoveRange and InterleaveRange, so
// entries split mid-pattern and their patterns rotate. It returns the PSM
// and a range covering all three allocations.
func randomPSM(rng *rand.Rand) (*PSM, memsim.Range) {
	sockets := 2 + rng.Intn(7)
	a := memsim.NewAllocator(sockets)
	policy := func() memsim.Policy {
		if rng.Intn(2) == 0 {
			return memsim.OnSocket(rng.Intn(sockets))
		}
		k := 2 + rng.Intn(min(3, sockets-1))
		return memsim.Interleaved{Sockets: rng.Perm(sockets)[:k]}
	}
	var rs [3]memsim.Range
	for i := range rs {
		rs[i] = a.Alloc(int64(1+rng.Intn(40))*page-int64(rng.Intn(page)), policy())
	}
	span := memsim.Range{Start: rs[0].Start, Bytes: int64(rs[2].End() - rs[0].Start)}
	p := Build(a, rs[0], rs[2])
	for op := rng.Intn(6); op > 0; op-- {
		sub := randomSub(rng, span)
		if sub.Bytes == 0 {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			p.Remove(sub)
		case 1:
			// Moves touch tracked pages only: MoveRange re-adds the range
			// from the allocator, which would start tracking the middle
			// allocation.
			for _, r := range []memsim.Range{rs[0], rs[2]} {
				if s, ok := intersect(sub, r); ok {
					p.MoveRange(a, s, rng.Intn(sockets))
				}
			}
		default:
			k := 2 + rng.Intn(min(3, sockets-1))
			for _, r := range []memsim.Range{rs[0], rs[2]} {
				if s, ok := intersect(sub, r); ok {
					p.InterleaveRange(a, s, rng.Perm(sockets)[:k])
				}
			}
		}
	}
	return p, span
}

// randomSub draws a byte subrange of r with unaligned ends; one in eight is
// empty and one in eight is a single byte.
func randomSub(rng *rand.Rand, r memsim.Range) memsim.Range {
	off := rng.Int63n(r.Bytes)
	var n int64
	switch rng.Intn(8) {
	case 0:
	case 1:
		n = 1
	default:
		n = 1 + rng.Int63n(r.Bytes-off)
	}
	return r.Subrange(off, n)
}

func intersect(a, b memsim.Range) (memsim.Range, bool) {
	lo, hi := max(a.Start, b.Start), min(a.End(), b.End())
	if lo >= hi {
		return memsim.Range{}, false
	}
	return memsim.Range{Start: lo, Bytes: int64(hi - lo)}, true
}

// TestSocketBytesMatchesPageWalk: on random PSMs with plain and interleaved
// entries, untracked gaps, split and rotated entries, and unaligned, empty
// and one-byte queries, the range walk returns exactly the page-by-page
// reference — the same length and the same bytes on every socket — into a
// buffer holding stale values from the previous query.
func TestSocketBytesMatchesPageWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf [MaxSockets]int64
	for i := range buf {
		buf[i] = -1
	}
	interleaved := 0
	for c := 0; c < 2000; c++ {
		p, span := randomPSM(rng)
		for _, e := range p.ranges {
			if len(e.pattern) > 0 {
				interleaved++
				break
			}
		}
		for q := 0; q < 20; q++ {
			sub := randomSub(rng, span)
			off := int64(sub.Start - span.Start)
			want := socketBytesRef(p, span, off, sub.Bytes)
			got := p.SocketBytes(span, off, sub.Bytes, buf[:])
			if !slices.Equal(got, want) {
				t.Fatalf("case %d: SocketBytes(+%d, %d) = %v, want %v\n%s", c, off, sub.Bytes, got, want, p)
			}
		}
	}
	if interleaved < 500 {
		t.Fatalf("only %d of 2000 PSMs had an interleaved entry", interleaved)
	}
}

// TestSocketBytesAllocFree pins the lookup allocation-free when the caller
// supplies the buffer.
func TestSocketBytesAllocFree(t *testing.T) {
	a := memsim.NewAllocator(4)
	r := a.Alloc(64*page, memsim.Interleaved{Sockets: []int{0, 1, 2, 3}})
	a.MovePages(r.Subrange(8*page, 16*page), 2)
	p := Build(a, r)
	var buf [MaxSockets]int64
	if n := testing.AllocsPerRun(100, func() {
		p.SocketBytes(r, 100, 40*page, buf[:])
	}); n != 0 {
		t.Fatalf("SocketBytes allocates %v times per call", n)
	}
}

// socketBytesSink keeps the benchmarked lookup's result alive.
var socketBytesSink []int64

// BenchmarkSocketBytes times the find phase's PSM lookup: one call over one
// partition of a 100k-row column's indexvector (17-bit codes, IVP over four
// sockets) is one row of the reported ns/row, which the CI perf gate diffs.
func BenchmarkSocketBytes(b *testing.B) {
	const ivBytes = 100_000 * 17 / 8
	a := memsim.NewAllocator(4)
	r := a.Alloc(ivBytes, memsim.OnSocket(0))
	part := r.Bytes / 4
	for s := 1; s < 4; s++ {
		a.MovePages(r.Subrange(int64(s)*part, part), s)
	}
	p := Build(a, r)
	var buf [MaxSockets]int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		socketBytesSink = p.SocketBytes(r, int64(i%4)*part, part, buf[:])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
}
