package memsim

import (
	"testing"
	"testing/quick"
)

func TestAllocOnSocket(t *testing.T) {
	a := NewAllocator(4)
	r := a.Alloc(3*PageSize+100, OnSocket(2))
	if got := r.Pages(); got != 4 {
		t.Fatalf("pages = %d, want 4", got)
	}
	for _, s := range a.QueryPages(r) {
		if s != 2 {
			t.Fatalf("page on socket %d, want 2", s)
		}
	}
	if a.PagesOnSocket(2) != 4 {
		t.Fatalf("PagesOnSocket(2) = %d", a.PagesOnSocket(2))
	}
}

func TestAllocInterleaved(t *testing.T) {
	a := NewAllocator(4)
	r := a.Alloc(8*PageSize, Interleaved{Sockets: []int{0, 1, 2, 3}})
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	got := a.QueryPages(r)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("QueryPages = %v, want %v", got, want)
		}
	}
}

func TestAllocInterleavedStartOffset(t *testing.T) {
	a := NewAllocator(4)
	r := a.Alloc(4*PageSize, Interleaved{Sockets: []int{0, 1, 2, 3}, Start: 2})
	want := []int{2, 3, 0, 1}
	got := a.QueryPages(r)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("QueryPages = %v, want %v", got, want)
		}
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	a := NewAllocator(2)
	r1 := a.Alloc(PageSize/2, OnSocket(0))
	r2 := a.Alloc(PageSize/2, OnSocket(1))
	if r1.End() > r2.Start {
		t.Fatalf("ranges overlap: %+v then %+v", r1, r2)
	}
	if r1.Start.PageIndex() == r2.Start.PageIndex() {
		t.Fatal("two allocations share a page; placement would be ambiguous")
	}
}

func TestMovePages(t *testing.T) {
	a := NewAllocator(4)
	r := a.Alloc(10*PageSize, OnSocket(0))
	moved := a.MovePages(r, 3)
	if moved != 10 {
		t.Fatalf("moved = %d, want 10", moved)
	}
	if a.PagesOnSocket(0) != 0 || a.PagesOnSocket(3) != 10 {
		t.Fatalf("per-socket counts wrong: s0=%d s3=%d", a.PagesOnSocket(0), a.PagesOnSocket(3))
	}
	// Idempotent.
	if again := a.MovePages(r, 3); again != 0 {
		t.Fatalf("second move moved %d pages, want 0", again)
	}
	if a.TotalPagesMoved() != 10 {
		t.Fatalf("TotalPagesMoved = %d, want 10", a.TotalPagesMoved())
	}
}

func TestMovePartialRange(t *testing.T) {
	a := NewAllocator(2)
	r := a.Alloc(10*PageSize, OnSocket(0))
	half := r.Subrange(0, 5*PageSize)
	if moved := a.MovePages(half, 1); moved != 5 {
		t.Fatalf("moved = %d, want 5", moved)
	}
	if a.PagesOnSocket(0) != 5 || a.PagesOnSocket(1) != 5 {
		t.Fatal("partial move mis-counted")
	}
}

func TestInterleavePages(t *testing.T) {
	a := NewAllocator(4)
	r := a.Alloc(8*PageSize, OnSocket(0))
	a.InterleavePages(r, []int{0, 1, 2, 3})
	got := a.QueryPages(r)
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("QueryPages = %v, want %v", got, want)
		}
	}
}

func TestSocketBytesPartialPages(t *testing.T) {
	a := NewAllocator(2)
	r := a.Alloc(2*PageSize, OnSocket(0))
	sub := r.Subrange(PageSize/2, PageSize) // half of page 0, half of page 1
	bytes := a.SocketBytes(sub)
	if bytes[0] != PageSize {
		t.Fatalf("SocketBytes = %v, want %d on socket 0", bytes, PageSize)
	}
}

func TestMajoritySocket(t *testing.T) {
	a := NewAllocator(4)
	r := a.Alloc(10*PageSize, OnSocket(1))
	a.MovePages(r.Subrange(0, 3*PageSize), 2)
	if got := a.MajoritySocket(r); got != 1 {
		t.Fatalf("MajoritySocket = %d, want 1", got)
	}
	if got := a.MajoritySocket(Range{Start: 1 << 40, Bytes: PageSize}); got != -1 {
		t.Fatalf("MajoritySocket of unallocated = %d, want -1", got)
	}
}

func TestRuns(t *testing.T) {
	a := NewAllocator(4)
	r := a.Alloc(6*PageSize, OnSocket(0))
	a.MovePages(r.Subrange(2*PageSize, 2*PageSize), 1)
	runs := a.Runs(r)
	if len(runs) != 3 {
		t.Fatalf("runs = %+v, want 3 runs", runs)
	}
	if runs[0].Socket != 0 || runs[0].NPages != 2 ||
		runs[1].Socket != 1 || runs[1].NPages != 2 ||
		runs[2].Socket != 0 || runs[2].NPages != 2 {
		t.Fatalf("unexpected runs: %+v", runs)
	}
}

func TestFree(t *testing.T) {
	a := NewAllocator(2)
	r := a.Alloc(4*PageSize, OnSocket(1))
	a.Free(r)
	if a.PagesOnSocket(1) != 0 {
		t.Fatalf("pages remain after free: %d", a.PagesOnSocket(1))
	}
	if a.PageSocket(r.Start) != -1 {
		t.Fatal("freed page still resolves")
	}
}

func TestRangeHelpers(t *testing.T) {
	r := Range{Start: PageSize, Bytes: PageSize + 1}
	if r.Pages() != 2 {
		t.Fatalf("Pages = %d, want 2", r.Pages())
	}
	if (Range{Start: PageSize, Bytes: 0}).Pages() != 0 {
		t.Fatal("empty range should span 0 pages")
	}
	if Addr(PageSize+123).PageBase() != PageSize {
		t.Fatal("PageBase wrong")
	}
}

func TestSubrangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range subrange")
		}
	}()
	r := Range{Start: 0, Bytes: 100}
	r.Subrange(50, 100)
}

// Property: after any sequence of moves, per-socket page counts always sum
// to the total allocated pages, and SocketBytes sums to the range size.
func TestAccountingInvariantProperty(t *testing.T) {
	f := func(seed uint32) bool {
		a := NewAllocator(4)
		n := int64(1 + seed%64)
		r := a.Alloc(n*PageSize, Interleaved{Sockets: []int{0, 1, 2, 3}})
		s := seed
		for i := 0; i < 10; i++ {
			s = s*1664525 + 1013904223
			off := int64(s%uint32(n)) * PageSize
			s = s*1664525 + 1013904223
			ln := int64(1+s%uint32(n)) * PageSize
			if off+ln > r.Bytes {
				ln = r.Bytes - off
			}
			if ln <= 0 {
				continue
			}
			s = s*1664525 + 1013904223
			a.MovePages(r.Subrange(off, ln), int(s%4))
		}
		total := int64(0)
		for sck := 0; sck < 4; sck++ {
			total += a.PagesOnSocket(sck)
		}
		if total != n {
			return false
		}
		sb := a.SocketBytes(r)
		sum := int64(0)
		for _, b := range sb {
			sum += b
		}
		return sum == r.Bytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Runs returns the range's pages as maximal runs of consecutive pages on the
// same socket: a compact summary used by the PSM build algorithm.
func (a *Allocator) Runs(r Range) []Run {
	var runs []Run
	first := r.Start.PageIndex()
	for i := int64(0); i < r.Pages(); i++ {
		p := first + uint64(i)
		s, ok := a.pages[p]
		if !ok {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].Socket == int(s) &&
			runs[n-1].FirstPage+uint64(runs[n-1].NPages) == p {
			runs[n-1].NPages++
		} else {
			runs = append(runs, Run{FirstPage: p, NPages: 1, Socket: int(s)})
		}
	}
	return runs
}

// Run is a maximal sequence of consecutive pages resident on one socket.
type Run struct {
	FirstPage uint64
	NPages    uint32
	Socket    int
}
