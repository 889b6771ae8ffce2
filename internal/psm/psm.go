// Package psm implements the Page Socket Mapping of Section 4.3 of the
// paper: a compact, read-optimized summary of the physical location of
// virtual address ranges. A PSM maintains a sorted vector of ranges — each
// holding a first page address (64 bits), a page count (32 bits), a socket
// (8 bits), and an interleaving pattern (256 bits) — plus a summary vector of
// pages per socket (256 x 32 bits). Looking up the physical location of a
// pointer is a binary search over the ranges' first pages, following the
// interleaving pattern when the range is interleaved.
package psm

import (
	"fmt"
	"sort"
	"strings"

	"numacs/internal/memsim"
)

// MaxSockets is the maximum socket count a PSM can describe (the paper sizes
// the interleaving pattern and summary vector for 256 sockets).
const MaxSockets = 256

// entryBits is the size of one stored range: 64 (first page address) +
// 32 (number of pages) + 8 (socket) + 256 (interleaving pattern).
const entryBits = 64 + 32 + 8 + 256

// summaryBits is the size of the pages-per-socket summary vector.
const summaryBits = MaxSockets * 32

// rangeEntry is one entry of the internal vector of ranges.
type rangeEntry struct {
	firstPage uint64 // page index (address / PageSize)
	nPages    uint32
	socket    uint8 // for interleaved ranges: the starting socket
	// pattern lists the participating sockets of an interleaved range in
	// round-robin order starting at 'socket'; nil for non-interleaved ranges.
	// (The paper stores this as a 256-bit socket bitmask plus start socket;
	// we keep the explicit order, which is equivalent for lookups and is
	// still accounted at 256 bits in SizeBits.)
	pattern []uint8
}

func (e *rangeEntry) lastPage() uint64 { return e.firstPage + uint64(e.nPages) - 1 }

// pageLoc pairs a page index with the socket backing it.
type pageLoc struct {
	page   uint64
	socket int
}

func (e *rangeEntry) socketOfPage(page uint64) int {
	if len(e.pattern) == 0 {
		return int(e.socket)
	}
	off := page - e.firstPage
	return int(e.pattern[off%uint64(len(e.pattern))])
}

// PSM summarizes the physical location of a set of virtual pages.
type PSM struct {
	ranges  []rangeEntry
	summary [MaxSockets]uint32
}

// New returns an empty PSM.
func New() *PSM { return &PSM{} }

// Build creates a PSM for the given virtual ranges by querying the allocator
// for the physical location of each page (the move_pages query path),
// collapsing contiguous same-socket pages into ranges and detecting
// round-robin interleaving patterns.
func Build(alloc *memsim.Allocator, ranges ...memsim.Range) *PSM {
	p := New()
	for _, r := range ranges {
		p.Add(alloc, r)
	}
	return p
}

// Add incorporates the pages of a virtual range. Pages already tracked are
// skipped, mirroring the paper's description.
func (p *PSM) Add(alloc *memsim.Allocator, r memsim.Range) {
	if r.Bytes == 0 {
		return
	}
	first := r.Start.PageIndex()
	n := uint64(r.Pages())
	// Collect the physical socket of each not-yet-tracked page.
	var locs []pageLoc
	socks := alloc.QueryPages(memsim.Range{Start: r.Start.PageBase(), Bytes: int64(n) * memsim.PageSize})
	for i := uint64(0); i < n; i++ {
		page := first + i
		if socks[i] < 0 || p.contains(page) {
			continue
		}
		locs = append(locs, pageLoc{page, socks[i]})
	}
	// Greedily emit runs, preferring plain same-socket runs and falling back
	// to interleave detection when consecutive pages alternate sockets with
	// a recurring pattern.
	for i := 0; i < len(locs); {
		// Extend a same-socket contiguous run.
		j := i + 1
		for j < len(locs) && locs[j].page == locs[j-1].page+1 && locs[j].socket == locs[i].socket {
			j++
		}
		if j-i > 1 || j == len(locs) || locs[j].page != locs[j-1].page+1 {
			p.insert(rangeEntry{firstPage: locs[i].page, nPages: uint32(j - i), socket: uint8(locs[i].socket)})
			i = j
			continue
		}
		// Try to detect an interleaving pattern: find the shortest period k
		// (2..MaxSockets) such that sockets repeat with period k over a
		// contiguous run of pages.
		runEnd := i + 1
		for runEnd < len(locs) && locs[runEnd].page == locs[runEnd-1].page+1 {
			runEnd++
		}
		run := locs[i:runEnd]
		k, covered := detectPattern(run)
		if k >= 2 {
			pat := make([]uint8, k)
			for x := 0; x < k; x++ {
				pat[x] = uint8(run[x].socket)
			}
			p.insert(rangeEntry{
				firstPage: run[0].page,
				nPages:    uint32(covered),
				socket:    pat[0],
				pattern:   pat,
			})
			i += covered
			continue
		}
		// No pattern: emit the single page.
		p.insert(rangeEntry{firstPage: locs[i].page, nPages: 1, socket: uint8(locs[i].socket)})
		i++
	}
}

// detectPattern finds the shortest period k>=2 under which a prefix of the
// run's socket sequence repeats with k distinct sockets (a round-robin
// interleave) and returns k with the length of the periodic prefix. A
// pattern must recur for at least two full periods; otherwise (0,0) is
// returned and the caller falls back to plain ranges.
func detectPattern(run []pageLoc) (k, covered int) {
	for k = 2; k <= MaxSockets && 2*k <= len(run); k++ {
		distinct := make(map[int]bool, k)
		for x := 0; x < k; x++ {
			distinct[run[x].socket] = true
		}
		if len(distinct) != k {
			continue
		}
		c := k
		for c < len(run) && run[c].socket == run[c-k].socket {
			c++
		}
		if c >= 2*k {
			return k, c
		}
	}
	return 0, 0
}

// contains reports whether the page is already tracked.
func (p *PSM) contains(page uint64) bool {
	i := sort.Search(len(p.ranges), func(i int) bool { return p.ranges[i].lastPage() >= page })
	return i < len(p.ranges) && p.ranges[i].firstPage <= page
}

// insert adds an entry keeping the vector sorted by first page, merging with
// an adjacent compatible plain range when possible.
func (p *PSM) insert(e rangeEntry) {
	// Update summary.
	if len(e.pattern) == 0 {
		p.summary[e.socket] += e.nPages
	} else {
		k := uint32(len(e.pattern))
		for idx, s := range e.pattern {
			cnt := e.nPages / k
			if uint32(idx) < e.nPages%k {
				cnt++
			}
			p.summary[s] += cnt
		}
	}
	i := sort.Search(len(p.ranges), func(i int) bool { return p.ranges[i].firstPage > e.firstPage })
	// Merge with predecessor when contiguous, same socket, both plain.
	if i > 0 {
		prev := &p.ranges[i-1]
		if len(prev.pattern) == 0 && len(e.pattern) == 0 &&
			prev.socket == e.socket && prev.firstPage+uint64(prev.nPages) == e.firstPage {
			prev.nPages += e.nPages
			p.mergeForward(i - 1)
			return
		}
	}
	p.ranges = append(p.ranges, rangeEntry{})
	copy(p.ranges[i+1:], p.ranges[i:])
	p.ranges[i] = e
	p.mergeForward(i)
}

// mergeForward merges entry i with its successor if compatible.
func (p *PSM) mergeForward(i int) {
	for i+1 < len(p.ranges) {
		a, b := &p.ranges[i], &p.ranges[i+1]
		if len(a.pattern) == 0 && len(b.pattern) == 0 && a.socket == b.socket &&
			a.firstPage+uint64(a.nPages) == b.firstPage {
			a.nPages += b.nPages
			p.ranges = append(p.ranges[:i+1], p.ranges[i+2:]...)
			continue
		}
		return
	}
}

// Remove drops all pages of the virtual range from the PSM, splitting
// entries as needed.
func (p *PSM) Remove(r memsim.Range) {
	if r.Bytes == 0 {
		return
	}
	first := r.Start.PageIndex()
	last := (r.End() - 1).PageIndex()
	var out []rangeEntry
	var summary [MaxSockets]uint32
	for _, e := range p.ranges {
		segs := subtract(e, first, last)
		out = append(out, segs...)
	}
	p.ranges = out
	for _, e := range p.ranges {
		if len(e.pattern) == 0 {
			summary[e.socket] += e.nPages
		} else {
			k := uint32(len(e.pattern))
			for idx, s := range e.pattern {
				cnt := e.nPages / k
				if uint32(idx) < e.nPages%k {
					cnt++
				}
				summary[s] += cnt
			}
		}
	}
	p.summary = summary
}

// subtract returns e minus pages [first,last], preserving pattern phase.
func subtract(e rangeEntry, first, last uint64) []rangeEntry {
	eFirst, eLast := e.firstPage, e.lastPage()
	if last < eFirst || first > eLast {
		return []rangeEntry{e}
	}
	var out []rangeEntry
	if first > eFirst {
		left := e
		left.nPages = uint32(first - eFirst)
		out = append(out, left)
	}
	if last < eLast {
		right := e
		right.firstPage = last + 1
		right.nPages = uint32(eLast - last)
		if len(e.pattern) > 0 {
			// Rotate the pattern so it still starts at the new first page.
			shift := (last + 1 - eFirst) % uint64(len(e.pattern))
			pat := make([]uint8, len(e.pattern))
			for i := range pat {
				pat[i] = e.pattern[(uint64(i)+shift)%uint64(len(e.pattern))]
			}
			right.pattern = pat
			right.socket = pat[0]
		}
		out = append(out, right)
	}
	return out
}

// LocationOf returns the socket backing the page that contains the address,
// or -1 when the address is not tracked.
func (p *PSM) LocationOf(addr memsim.Addr) int {
	page := addr.PageIndex()
	i := sort.Search(len(p.ranges), func(i int) bool { return p.ranges[i].lastPage() >= page })
	if i == len(p.ranges) || p.ranges[i].firstPage > page {
		return -1
	}
	return p.ranges[i].socketOfPage(page)
}

// SocketBytes writes the per-socket resident bytes of the subrange
// [off, off+bytes) of r into out and returns out trimmed to the highest
// socket holding any of them (out[:1] when none is tracked, out[:0] for an
// empty subrange). The count is byte-exact: a partially covered page
// contributes only its covered bytes. out must be longer than the highest
// socket the PSM tracks (MaxSockets always suffices); its previous contents
// are ignored.
//
// The lookup is one binary search for the first range entry, then plain
// arithmetic per entry; only interleaved entries are walked page by page.
func (p *PSM) SocketBytes(r memsim.Range, off, bytes int64, out []int64) []int64 {
	if bytes <= 0 {
		return out[:0]
	}
	sub := r.Subrange(off, bytes)
	start, end := sub.Start, sub.End()
	firstPage, lastPage := start.PageIndex(), (end - 1).PageIndex()
	out[0] = 0
	top := 0 // out[:top+1] is cleared
	add := func(s int, b int64) {
		if s > top {
			clear(out[top+1 : s+1])
			top = s
		}
		out[s] += b
	}
	i := sort.Search(len(p.ranges), func(i int) bool { return p.ranges[i].lastPage() >= firstPage })
	for ; i < len(p.ranges) && p.ranges[i].firstPage <= lastPage; i++ {
		e := &p.ranges[i]
		lo := max(start, memsim.Addr(e.firstPage*memsim.PageSize))
		hi := min(end, memsim.Addr((e.lastPage()+1)*memsim.PageSize))
		if len(e.pattern) == 0 {
			add(int(e.socket), int64(hi-lo))
			continue
		}
		for a := lo; a < hi; {
			next := min(a.PageBase()+memsim.PageSize, hi)
			add(e.socketOfPage(a.PageIndex()), int64(next-a))
			a = next
		}
	}
	return out[:top+1]
}

// Summary returns pages per socket, indexed by socket id, trimmed to the
// highest socket in use.
func (p *PSM) Summary() []uint32 {
	hi := -1
	for s := MaxSockets - 1; s >= 0; s-- {
		if p.summary[s] > 0 {
			hi = s
			break
		}
	}
	out := make([]uint32, hi+1)
	copy(out, p.summary[:hi+1])
	return out
}

// PagesOn returns the summary's page count of one socket without copying
// the summary vector (0 for a socket outside [0, MaxSockets)).
func (p *PSM) PagesOn(socket int) uint32 {
	if socket < 0 || socket >= MaxSockets {
		return 0
	}
	return p.summary[socket]
}

// TotalPages returns the number of pages the PSM tracks.
func (p *PSM) TotalPages() uint64 {
	total := uint64(0)
	for _, e := range p.ranges {
		total += uint64(e.nPages)
	}
	return total
}

// MajoritySocket returns the socket holding the most tracked pages, or -1
// for an empty PSM. Ties break toward the lower socket id.
func (p *PSM) MajoritySocket() int {
	best, bestPages := -1, uint32(0)
	for s := 0; s < MaxSockets; s++ {
		if p.summary[s] > bestPages {
			best, bestPages = s, p.summary[s]
		}
	}
	return best
}

// NumRanges returns the number of stored ranges.
func (p *PSM) NumRanges() int { return len(p.ranges) }

// SizeBits returns the metadata size in bits using the paper's accounting:
// 360 bits per stored range plus an 8192-bit summary vector.
func (p *PSM) SizeBits() int { return entryBits*len(p.ranges) + summaryBits }

// MoveRange migrates the pages of the virtual range to the target socket via
// the allocator and updates the PSM in place.
func (p *PSM) MoveRange(alloc *memsim.Allocator, r memsim.Range, to int) int64 {
	moved := alloc.MovePages(r, to)
	p.Remove(r)
	p.Add(alloc, r)
	return moved
}

// String renders the PSM for debugging.
func (p *PSM) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PSM{%d ranges, %d pages", len(p.ranges), p.TotalPages())
	for _, e := range p.ranges {
		if len(e.pattern) == 0 {
			fmt.Fprintf(&b, " [page %d +%d -> S%d]", e.firstPage, e.nPages, e.socket)
		} else {
			fmt.Fprintf(&b, " [page %d +%d interleave %v]", e.firstPage, e.nPages, e.pattern)
		}
	}
	b.WriteString("}")
	return b.String()
}
