package psm

import (
	"testing"
	"testing/quick"

	"numacs/internal/memsim"
)

const page = memsim.PageSize

func TestBuildSingleSocketRange(t *testing.T) {
	a := memsim.NewAllocator(4)
	r := a.Alloc(10*page, memsim.OnSocket(2))
	p := Build(a, r)
	if p.NumRanges() != 1 {
		t.Fatalf("ranges = %d, want 1: %s", p.NumRanges(), p)
	}
	if p.TotalPages() != 10 {
		t.Fatalf("pages = %d, want 10", p.TotalPages())
	}
	if got := p.LocationOf(r.Start + 5*page + 17); got != 2 {
		t.Fatalf("LocationOf = %d, want 2", got)
	}
	if got := p.MajoritySocket(); got != 2 {
		t.Fatalf("MajoritySocket = %d, want 2", got)
	}
}

func TestBuildDetectsInterleave(t *testing.T) {
	a := memsim.NewAllocator(4)
	r := a.Alloc(16*page, memsim.Interleaved{Sockets: []int{0, 1, 2, 3}})
	p := Build(a, r)
	if p.NumRanges() != 1 {
		t.Fatalf("interleaved range should collapse to one entry, got %d: %s", p.NumRanges(), p)
	}
	for i := 0; i < 16; i++ {
		want := i % 4
		if got := p.LocationOf(r.Start + memsim.Addr(i*page)); got != want {
			t.Fatalf("page %d: LocationOf = %d, want %d", i, got, want)
		}
	}
	sum := p.Summary()
	for s := 0; s < 4; s++ {
		if sum[s] != 4 {
			t.Fatalf("summary = %v, want 4 pages on each socket", sum)
		}
	}
}

func TestBuildPatternBreak(t *testing.T) {
	// Interleave that breaks into a solid run: 0,1,0,1,0,1,2,2,2,2.
	a := memsim.NewAllocator(4)
	r := a.Alloc(10*page, memsim.OnSocket(2))
	a.InterleavePages(r.Subrange(0, 6*page), []int{0, 1})
	p := Build(a, r)
	for i, want := range []int{0, 1, 0, 1, 0, 1, 2, 2, 2, 2} {
		if got := p.LocationOf(r.Start + memsim.Addr(i*page)); got != want {
			t.Fatalf("page %d: LocationOf = %d, want %d (%s)", i, got, want, p)
		}
	}
	if p.NumRanges() > 3 {
		t.Fatalf("expected compact encoding, got %d ranges: %s", p.NumRanges(), p)
	}
}

func TestBuildMixedRanges(t *testing.T) {
	// The paper's Figure 5 example: one range split across two sockets plus
	// an interleaved range.
	a := memsim.NewAllocator(4)
	iv := a.Alloc(4*page, memsim.OnSocket(0))
	a.MovePages(iv.Subrange(2*page, 2*page), 1)
	dict := a.Alloc(3*page, memsim.Interleaved{Sockets: []int{0, 1, 2, 3}, Start: 2})
	p := Build(a, iv, dict)
	if got := p.LocationOf(iv.Start); got != 0 {
		t.Fatalf("iv page 0 on %d", got)
	}
	if got := p.LocationOf(iv.Start + 3*page); got != 1 {
		t.Fatalf("iv page 3 on %d", got)
	}
	if got := p.LocationOf(dict.Start); got != 2 {
		t.Fatalf("dict page 0 on %d, want 2", got)
	}
	if got := p.TotalPages(); got != 7 {
		t.Fatalf("pages = %d, want 7", got)
	}
}

func TestLocationOfUntracked(t *testing.T) {
	p := New()
	if got := p.LocationOf(123456); got != -1 {
		t.Fatalf("LocationOf on empty PSM = %d, want -1", got)
	}
	if got := p.MajoritySocket(); got != -1 {
		t.Fatalf("MajoritySocket on empty PSM = %d, want -1", got)
	}
}

func TestAddSkipsTrackedPages(t *testing.T) {
	a := memsim.NewAllocator(2)
	r := a.Alloc(4*page, memsim.OnSocket(0))
	p := Build(a, r)
	a.MovePages(r, 1) // move everything; PSM must keep the stale view
	p.Add(a, r)       // already tracked: no change
	if got := p.LocationOf(r.Start); got != 0 {
		t.Fatalf("Add re-read tracked pages: socket %d", got)
	}
	if p.TotalPages() != 4 {
		t.Fatalf("pages = %d", p.TotalPages())
	}
}

func TestRemoveSplitsRanges(t *testing.T) {
	a := memsim.NewAllocator(2)
	r := a.Alloc(10*page, memsim.OnSocket(0))
	p := Build(a, r)
	p.Remove(r.Subrange(4*page, 2*page))
	if p.TotalPages() != 8 {
		t.Fatalf("pages = %d, want 8", p.TotalPages())
	}
	if got := p.LocationOf(r.Start + 4*page); got != -1 {
		t.Fatalf("removed page still resolves to %d", got)
	}
	if got := p.LocationOf(r.Start + 6*page); got != 0 {
		t.Fatalf("kept page lost: %d", got)
	}
	if p.NumRanges() != 2 {
		t.Fatalf("ranges = %d, want 2: %s", p.NumRanges(), p)
	}
}

func TestRemovePreservesInterleavePhase(t *testing.T) {
	a := memsim.NewAllocator(4)
	r := a.Alloc(12*page, memsim.Interleaved{Sockets: []int{0, 1, 2, 3}})
	p := Build(a, r)
	p.Remove(r.Subrange(0, 2*page)) // now starts at page 2 -> socket 2
	if got := p.LocationOf(r.Start + 2*page); got != 2 {
		t.Fatalf("phase lost after Remove: socket %d, want 2 (%s)", got, p)
	}
	if got := p.LocationOf(r.Start + 5*page); got != 1 {
		t.Fatalf("phase lost after Remove: socket %d, want 1", got)
	}
}

func TestMoveRange(t *testing.T) {
	a := memsim.NewAllocator(4)
	r := a.Alloc(8*page, memsim.OnSocket(0))
	p := Build(a, r)
	moved := p.MoveRange(a, r.Subrange(0, 4*page), 3)
	if moved != 4 {
		t.Fatalf("moved = %d, want 4", moved)
	}
	if got := p.LocationOf(r.Start); got != 3 {
		t.Fatalf("PSM stale after MoveRange: %d", got)
	}
	if got := p.LocationOf(r.Start + 6*page); got != 0 {
		t.Fatalf("unmoved page relocated: %d", got)
	}
	if got := a.PageSocket(r.Start); got != 3 {
		t.Fatalf("allocator disagrees: %d", got)
	}
}

func TestInterleaveRange(t *testing.T) {
	a := memsim.NewAllocator(4)
	r := a.Alloc(8*page, memsim.OnSocket(0))
	p := Build(a, r)
	p.InterleaveRange(a, r, []int{0, 1, 2, 3})
	for i := 0; i < 8; i++ {
		if got := p.LocationOf(r.Start + memsim.Addr(i*page)); got != i%4 {
			t.Fatalf("page %d on %d after interleave", i, got)
		}
	}
}

func TestSocketBytes(t *testing.T) {
	a := memsim.NewAllocator(2)
	r := a.Alloc(4*page, memsim.OnSocket(0))
	a.MovePages(r.Subrange(2*page, 2*page), 1)
	p := Build(a, r)
	var buf [MaxSockets]int64
	b := p.SocketBytes(r, 0, 4*page, buf[:])
	if b[0] != 2*page || b[1] != 2*page {
		t.Fatalf("SocketBytes = %v", b)
	}
	// Subrange straddling the boundary.
	b = p.SocketBytes(r, page, 2*page, buf[:])
	if b[0] != page || b[1] != page {
		t.Fatalf("SocketBytes(straddle) = %v", b)
	}
}

// Paper Section 4.3: metadata sizes for a column on a 32-socket machine.
func TestPaperMetadataSizes(t *testing.T) {
	// Whole column on one socket: r=1 for IV, r=1 for dict, r=2 for IX
	// => 4 ranges total => 4*360 + 3*8192 bits ~ 3 KiB.
	bits := func(ranges, psms int) int { return ranges*entryBits + psms*summaryBits }
	if got, want := bits(4, 3), 26016; got != want {
		t.Fatalf("whole-socket metadata = %d bits, want %d", got, want)
	}
	// IVP across 32 sockets: r=32 IV + r=1 dict + r=2 IX = 35 ranges.
	if got, want := bits(35, 3), 37176; got != want {
		t.Fatalf("IVP metadata = %d bits, want %d", got, want)
	}
	// PP with 32 parts: per part 4 ranges and 3 PSMs.
	got := 32 * bits(4, 3)
	if got != 832512 { // ~102 KiB
		t.Fatalf("PP metadata = %d bits", got)
	}
	if kib := float64(got) / 8 / 1024; kib < 100 || kib > 104 {
		t.Fatalf("PP metadata = %.1f KiB, want ~102 KiB", kib)
	}
}

func TestSizeBitsMatchesFormula(t *testing.T) {
	a := memsim.NewAllocator(4)
	r := a.Alloc(8*page, memsim.OnSocket(0))
	a.MovePages(r.Subrange(4*page, 4*page), 1)
	p := Build(a, r)
	if got, want := p.SizeBits(), 2*360+8192; got != want {
		t.Fatalf("SizeBits = %d, want %d", got, want)
	}
}

func TestSubset(t *testing.T) {
	a := memsim.NewAllocator(4)
	r := a.Alloc(8*page, memsim.OnSocket(0))
	a.MovePages(r.Subrange(4*page, 4*page), 1)
	p := Build(a, r)
	q := p.Subset(r.Subrange(4*page, 4*page))
	if q.TotalPages() != 4 {
		t.Fatalf("subset pages = %d, want 4", q.TotalPages())
	}
	if got := q.MajoritySocket(); got != 1 {
		t.Fatalf("subset majority = %d, want 1", got)
	}
	// Original untouched.
	if p.TotalPages() != 8 {
		t.Fatal("Subset mutated the source PSM")
	}
}

func TestAddPSM(t *testing.T) {
	a := memsim.NewAllocator(4)
	r1 := a.Alloc(4*page, memsim.OnSocket(0))
	r2 := a.Alloc(4*page, memsim.OnSocket(1))
	p := Build(a, r1)
	q := Build(a, r2)
	p.AddPSM(q)
	if p.TotalPages() != 8 {
		t.Fatalf("merged pages = %d, want 8", p.TotalPages())
	}
	if got := p.LocationOf(r2.Start); got != 1 {
		t.Fatalf("merged lookup = %d, want 1", got)
	}
}

// Property: for any move sequence, PSM lookups agree with the allocator
// after a rebuild, and the summary equals per-socket page counts.
func TestPSMAgreesWithAllocatorProperty(t *testing.T) {
	f := func(seed uint32) bool {
		a := memsim.NewAllocator(4)
		n := int64(2 + seed%40)
		r := a.Alloc(n*page, memsim.Interleaved{Sockets: []int{0, 1, 2, 3}})
		s := seed
		for i := 0; i < 6; i++ {
			s = s*1664525 + 1013904223
			off := int64(s%uint32(n)) * page
			s = s*1664525 + 1013904223
			ln := int64(1+s%8) * page
			if off+ln > r.Bytes {
				ln = r.Bytes - off
			}
			if ln <= 0 {
				continue
			}
			s = s*1664525 + 1013904223
			a.MovePages(r.Subrange(off, ln), int(s%4))
		}
		p := Build(a, r)
		if p.TotalPages() != uint64(n) {
			return false
		}
		var counts [4]uint32
		for i := int64(0); i < n; i++ {
			addr := r.Start + memsim.Addr(i*page)
			got := p.LocationOf(addr)
			want := a.PageSocket(addr)
			if got != want {
				return false
			}
			counts[want]++
		}
		sum := p.Summary()
		for sck, c := range counts {
			have := uint32(0)
			if sck < len(sum) {
				have = sum[sck]
			}
			if have != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// AddPSM merges another PSM's ranges into p (pages already present win).
func (p *PSM) AddPSM(q *PSM) {
	for _, e := range q.ranges {
		for pg := e.firstPage; pg <= e.lastPage(); pg++ {
			if p.contains(pg) {
				continue
			}
			p.insert(rangeEntry{firstPage: pg, nPages: 1, socket: uint8(e.socketOfPage(pg))})
		}
	}
}

// Subset returns a new PSM restricted to the pages of the given range.
func (p *PSM) Subset(r memsim.Range) *PSM {
	q := p.Clone()
	first := r.Start.PageIndex()
	last := (r.End() - 1).PageIndex()
	if r.Bytes == 0 {
		return New()
	}
	// Remove everything before and after.
	if first > 0 {
		q.Remove(memsim.Range{Start: 0, Bytes: int64(first) * memsim.PageSize})
	}
	q.Remove(memsim.Range{Start: memsim.Addr((last + 1) * memsim.PageSize), Bytes: 1 << 50})
	return q
}

// InterleaveRange re-places the pages of the range round-robin across the
// given sockets via the allocator and updates the PSM in place.
func (p *PSM) InterleaveRange(alloc *memsim.Allocator, r memsim.Range, sockets []int) int64 {
	moved := alloc.InterleavePages(r, sockets)
	p.Remove(r)
	p.Add(alloc, r)
	return moved
}

// Clone returns a deep copy.
func (p *PSM) Clone() *PSM {
	q := &PSM{summary: p.summary}
	q.ranges = make([]rangeEntry, len(p.ranges))
	copy(q.ranges, p.ranges)
	for i := range q.ranges {
		if q.ranges[i].pattern != nil {
			pat := make([]uint8, len(q.ranges[i].pattern))
			copy(pat, q.ranges[i].pattern)
			q.ranges[i].pattern = pat
		}
	}
	return q
}
