// Package memsim simulates the operating system's physical-memory facilities
// the paper relies on: a virtual address space organized in 4 KiB pages,
// first-touch and interleaved allocation policies, page-location queries, and
// page migration (the Linux move_pages analogue). Data placements and the
// Page Socket Mapping (package psm) are built against this API, mirroring
// Section 2 ("OS memory allocation facilities") of the paper.
package memsim

import "fmt"

// PageSize is the size of a physical page in bytes.
const PageSize = 4096

// Addr is a simulated virtual address.
type Addr uint64

// PageBase returns the base address of the page containing a.
func (a Addr) PageBase() Addr { return a &^ (PageSize - 1) }

// PageIndex returns the page number of the page containing a.
func (a Addr) PageIndex() uint64 { return uint64(a) / PageSize }

// Range is a contiguous virtual address range [Start, Start+Bytes).
type Range struct {
	Start Addr
	Bytes int64
}

// End returns the first address past the range.
func (r Range) End() Addr { return r.Start + Addr(r.Bytes) }

// Pages returns the number of pages the range spans.
func (r Range) Pages() int64 {
	if r.Bytes == 0 {
		return 0
	}
	first := r.Start.PageIndex()
	last := (r.End() - 1).PageIndex()
	return int64(last-first) + 1
}

// Subrange returns the range covering [off, off+bytes) within r.
func (r Range) Subrange(off, bytes int64) Range {
	if off < 0 || bytes < 0 || off+bytes > r.Bytes {
		panic(fmt.Sprintf("memsim: subrange [%d,%d) out of range of %d bytes", off, off+bytes, r.Bytes))
	}
	return Range{Start: r.Start + Addr(off), Bytes: bytes}
}

// Policy controls where newly touched pages are physically allocated.
type Policy interface {
	// socketFor returns the socket backing the i-th page of an allocation.
	socketFor(pageOrdinal int64) int
	String() string
}

// OnSocket places every page on one socket (what first-touch achieves when
// the touching thread is pinned to that socket).
type OnSocket int

func (p OnSocket) socketFor(int64) int { return int(p) }

// String names the policy and its socket.
func (p OnSocket) String() string { return fmt.Sprintf("socket(%d)", int(p)) }

// Interleaved distributes pages round-robin over the given sockets, starting
// at index Start into Sockets.
type Interleaved struct {
	Sockets []int
	Start   int
}

func (p Interleaved) socketFor(i int64) int {
	n := int64(len(p.Sockets))
	return p.Sockets[(int64(p.Start)+i)%n]
}

// String names the policy and its sockets.
func (p Interleaved) String() string { return fmt.Sprintf("interleave%v", p.Sockets) }

// Allocator is the simulated physical-memory manager. It is not safe for
// concurrent use; the simulation is single-threaded and deterministic.
type Allocator struct {
	sockets   int
	next      Addr
	pages     map[uint64]uint8 // page index -> socket
	perSocket []int64          // pages per socket
	moved     int64            // cumulative pages moved (move_pages cost proxy)
}

// NewAllocator creates an allocator for a machine with the given number of
// sockets.
func NewAllocator(sockets int) *Allocator {
	if sockets <= 0 || sockets > 256 {
		panic(fmt.Sprintf("memsim: bad socket count %d", sockets))
	}
	return &Allocator{
		sockets:   sockets,
		next:      PageSize, // keep 0 as a null address
		pages:     make(map[uint64]uint8),
		perSocket: make([]int64, sockets),
	}
}

// Alloc reserves bytes of virtual memory, backs every page according to the
// policy (i.e. the memory is "touched" immediately), and returns the range.
// Allocations are page-aligned.
func (a *Allocator) Alloc(bytes int64, policy Policy) Range {
	if bytes <= 0 {
		panic("memsim: allocation size must be positive")
	}
	r := Range{Start: a.next, Bytes: bytes}
	npages := r.Pages()
	first := r.Start.PageIndex()
	for i := int64(0); i < npages; i++ {
		s := policy.socketFor(i)
		a.checkSocket(s)
		a.pages[first+uint64(i)] = uint8(s)
		a.perSocket[s]++
	}
	a.next = (r.End() + PageSize - 1).PageBase()
	if a.next == r.End() {
		a.next += PageSize // guard page: keeps ranges non-adjacent
	}
	return r
}

// Free releases a range previously returned by Alloc.
func (a *Allocator) Free(r Range) {
	first := r.Start.PageIndex()
	for i := int64(0); i < r.Pages(); i++ {
		if s, ok := a.pages[first+uint64(i)]; ok {
			a.perSocket[s]--
			delete(a.pages, first+uint64(i))
		}
	}
}

// PageSocket returns the socket physically backing the page that contains
// addr, or -1 if the page is not allocated.
func (a *Allocator) PageSocket(addr Addr) int {
	if s, ok := a.pages[addr.PageIndex()]; ok {
		return int(s)
	}
	return -1
}

// QueryPages returns the backing socket of every page in the range, in
// order — the query half of move_pages(2).
func (a *Allocator) QueryPages(r Range) []int {
	out := make([]int, 0, r.Pages())
	first := r.Start.PageIndex()
	for i := int64(0); i < r.Pages(); i++ {
		s, ok := a.pages[first+uint64(i)]
		if !ok {
			out = append(out, -1)
		} else {
			out = append(out, int(s))
		}
	}
	return out
}

// MovePages migrates every allocated page of the range to the target socket
// and returns the number of pages that actually moved — the moving half of
// move_pages(2). Virtual addresses are unchanged.
func (a *Allocator) MovePages(r Range, to int) int64 {
	a.checkSocket(to)
	moved := int64(0)
	first := r.Start.PageIndex()
	for i := int64(0); i < r.Pages(); i++ {
		p := first + uint64(i)
		s, ok := a.pages[p]
		if !ok || int(s) == to {
			continue
		}
		a.perSocket[s]--
		a.perSocket[to]++
		a.pages[p] = uint8(to)
		moved++
	}
	a.moved += moved
	return moved
}

// InterleavePages re-places the range's pages round-robin across the given
// sockets (page i of the range goes to sockets[i%len]). Returns pages moved.
func (a *Allocator) InterleavePages(r Range, sockets []int) int64 {
	if len(sockets) == 0 {
		panic("memsim: interleave with no sockets")
	}
	moved := int64(0)
	first := r.Start.PageIndex()
	for i := int64(0); i < r.Pages(); i++ {
		p := first + uint64(i)
		to := sockets[i%int64Len(sockets)]
		a.checkSocket(to)
		s, ok := a.pages[p]
		if !ok || int(s) == to {
			continue
		}
		a.perSocket[s]--
		a.perSocket[to]++
		a.pages[p] = uint8(to)
		moved++
	}
	a.moved += moved
	return moved
}

// PagesOnSocket returns how many allocated pages live on a socket.
func (a *Allocator) PagesOnSocket(s int) int64 { return a.perSocket[s] }

// BytesOnSocket returns the allocated bytes resident on a socket.
func (a *Allocator) BytesOnSocket(s int) int64 { return a.perSocket[s] * PageSize }

// TotalPagesMoved returns the cumulative number of page migrations, a cost
// proxy for move_pages churn.
func (a *Allocator) TotalPagesMoved() int64 { return a.moved }

// SocketBytes splits a range into per-socket resident byte counts. Partial
// first/last pages are attributed proportionally to the bytes that actually
// fall within the range.
func (a *Allocator) SocketBytes(r Range) []int64 {
	out := make([]int64, a.sockets)
	if r.Bytes == 0 {
		return out
	}
	first := r.Start.PageIndex()
	for i := int64(0); i < r.Pages(); i++ {
		p := first + uint64(i)
		s, ok := a.pages[p]
		if !ok {
			continue
		}
		pageStart := Addr(p * PageSize)
		lo, hi := pageStart, pageStart+PageSize
		if r.Start > lo {
			lo = r.Start
		}
		if r.End() < hi {
			hi = r.End()
		}
		if hi > lo {
			out[s] += int64(hi - lo)
		}
	}
	return out
}

// MajoritySocket returns the socket backing most bytes of the range; ties
// break toward the lower socket id. Returns -1 for an unallocated range.
func (a *Allocator) MajoritySocket(r Range) int {
	bytes := a.SocketBytes(r)
	best, bestBytes := -1, int64(0)
	for s, b := range bytes {
		if b > bestBytes {
			best, bestBytes = s, b
		}
	}
	return best
}

func (a *Allocator) checkSocket(s int) {
	if s < 0 || s >= a.sockets {
		panic(fmt.Sprintf("memsim: socket %d out of range (machine has %d)", s, a.sockets))
	}
}

func int64Len(s []int) int64 { return int64(len(s)) }
