// Package delta implements the write side of the main/delta architecture the
// paper's column store builds on (Section 2 describes the read-optimized,
// dictionary-encoded main; updates never touch it directly). Writes append to
// an uncompressed, per-socket delta fragment — one fragment per socket, so a
// writing client appends to the fragment local to its socket — with a
// fragment-local unsorted dictionary. A visibility watermark per fragment
// makes appends atomic with respect to scans: a scan snapshots the committed
// row counts once at plan time and never sees a torn append. A background
// merge (placement.MergeDelta, triggered by the Section 7 adaptive placer as
// an Action{Kind:"merge"}) folds the visible delta rows back into a rebuilt
// dictionary-encoded main and truncates the merged prefix; appends that land
// during the merge simply stay in the delta for the next round.
//
// The package is a pure data structure plus simulated-size accounting: the
// Fragment's Range is the simulated allocation backing it (grown by
// placement.EnsureDeltaCapacity), and RowBytes is what one uncompressed delta
// row costs a scan — the delta trades write speed for scan bytes, which is
// exactly the degradation the delta-merge experiment measures.
//
// All methods are safe for concurrent use: appends, snapshots, and merges
// synchronize on per-fragment locks (the engine's simulated world is
// single-threaded, but the structure itself is race-clean and tested with
// -race).
package delta

import (
	"sync"

	"numacs/internal/memsim"
)

// RowBytes is the simulated cost of one delta row to a scan: an 8-byte
// uncompressed value plus a 4-byte row reference (the main row an update
// overwrites, or the append position of an insert). The main's bit-packed IV
// spends ~2 bits-per-row-per-bitcase; the delta spends 96 bits — the factor
// that makes scans degrade as the delta grows.
const RowBytes = 12

// Entry is one delta row of a real (non-synthetic) column: the target main
// row for updates (-1 for inserts), the fragment-local vid of the written
// value, and a store-wide sequence number ordering updates across fragments
// (last writer wins at merge and lookup time).
type Entry struct {
	Row int32
	Vid uint32
	Seq uint64
}

// Fragment is the per-socket append side of one column's delta: append-only
// entries, a fragment-local dictionary (value -> local vid), and the
// committed watermark below which entries are visible to scans.
type Fragment struct {
	// Socket is the socket the fragment's memory lives on; appends from a
	// client land in the fragment of the client's socket.
	Socket int
	// Range is the simulated allocation backing the fragment, managed by
	// placement.EnsureDeltaCapacity (grown geometrically) and freed when a
	// merge empties the fragment. Only the simulation layer touches it.
	Range memsim.Range

	mu        sync.RWMutex
	entries   []Entry          // real mode only; nil when synthetic
	values    []int64          // local vid -> value (real mode)
	dict      map[int64]uint32 // value -> local vid (real mode)
	committed int              // visibility watermark: entries visible to scans
	inserts   int              // committed entries with Row < 0
	synthetic bool
}

// Committed returns the fragment's visibility watermark: the number of delta
// rows a scan planned now may read.
func (f *Fragment) Committed() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.committed
}

// SizeBytes returns the simulated footprint of the committed fragment:
// RowBytes per row plus 8 bytes per local dictionary value.
func (f *Fragment) SizeBytes() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.sizeLocked()
}

func (f *Fragment) sizeLocked() int64 {
	return int64(f.committed)*RowBytes + int64(len(f.values))*8
}

// vidOf interns a value in the fragment-local dictionary. Caller holds f.mu.
func (f *Fragment) vidOf(v int64) uint32 {
	if vid, ok := f.dict[v]; ok {
		return vid
	}
	vid := uint32(len(f.values))
	f.values = append(f.values, v)
	f.dict[v] = vid
	return vid
}

// Delta is one column's delta store: per-socket fragments plus the
// store-wide write sequence and the merge latch.
type Delta struct {
	frags []*Fragment

	mu      sync.Mutex // guards seq and merging
	seq     uint64
	merging bool
}

// New creates a delta store with one fragment per socket. Synthetic mode
// (used by the simulation harness, whose columns carry no data) tracks only
// row counts and sizes; real mode stores values for the functional kernels.
func New(sockets int, synthetic bool) *Delta {
	if sockets < 1 {
		panic("delta: need at least one socket")
	}
	d := &Delta{frags: make([]*Fragment, sockets)}
	for s := range d.frags {
		f := &Fragment{Socket: s, synthetic: synthetic}
		if !synthetic {
			f.dict = make(map[int64]uint32)
		}
		d.frags[s] = f
	}
	return d
}

// Sockets returns the number of per-socket fragments.
func (d *Delta) Sockets() int { return len(d.frags) }

// Fragment returns the fragment of a socket.
func (d *Delta) Fragment(socket int) *Fragment { return d.frags[socket] }

// nextSeq issues the next store-wide write sequence number.
func (d *Delta) nextSeq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	return d.seq
}

// Insert appends a new row carrying value v to the fragment of the given
// socket. The row becomes visible to scans planned after the append returns
// (the watermark moves last).
func (d *Delta) Insert(socket int, v int64) { d.append(socket, -1, v) }

// Update appends a new version of main row `row` carrying value v to the
// fragment of the given socket. The latest version across all fragments wins
// (store-wide sequence order).
func (d *Delta) Update(socket, row int, v int64) {
	if row < 0 {
		panic("delta: update of a negative row")
	}
	d.append(socket, row, v)
}

func (d *Delta) append(socket, row int, v int64) {
	seq := d.nextSeq()
	f := d.frags[socket]
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.synthetic {
		f.entries = append(f.entries, Entry{Row: int32(row), Vid: f.vidOf(v), Seq: seq})
	}
	if row < 0 {
		f.inserts++
	}
	f.committed++ // watermark moves last: the entry is complete when visible
}

// Rows returns the committed delta rows across all fragments.
func (d *Delta) Rows() int {
	n := 0
	for _, f := range d.frags {
		n += f.Committed()
	}
	return n
}

// InsertRows returns the committed inserts across all fragments (the rows a
// merge adds to the main; updates rewrite existing main rows instead).
func (d *Delta) InsertRows() int {
	n := 0
	for _, f := range d.frags {
		f.mu.RLock()
		n += f.inserts
		f.mu.RUnlock()
	}
	return n
}

// SizeBytes returns the committed simulated footprint of the whole delta —
// the quantity the adaptive placer's merge threshold compares against the
// main's IV bytes.
func (d *Delta) SizeBytes() int64 {
	var b int64
	for _, f := range d.frags {
		b += f.SizeBytes()
	}
	return b
}

// Snapshot is a consistent per-fragment visibility watermark: the row counts
// a scan (or merge) operates on. Fragments may keep growing afterwards; rows
// at or past the snapshot are simply not seen.
type Snapshot struct {
	// Rows and Inserts hold the committed row/insert counts per socket at
	// snapshot time.
	Rows    []int
	Inserts []int
}

// Snapshot captures the current watermark of every fragment.
func (d *Delta) Snapshot() Snapshot {
	s := Snapshot{Rows: make([]int, len(d.frags)), Inserts: make([]int, len(d.frags))}
	for i, f := range d.frags {
		f.mu.RLock()
		s.Rows[i] = f.committed
		s.Inserts[i] = f.inserts
		f.mu.RUnlock()
	}
	return s
}

// RowsInto writes each fragment's watermark, the visible rows Snapshot
// captures in Rows, into buf's storage and returns it.
func (d *Delta) RowsInto(buf []int) []int {
	buf = buf[:0]
	for _, f := range d.frags {
		f.mu.RLock()
		buf = append(buf, f.committed)
		f.mu.RUnlock()
	}
	return buf
}

// TotalRows returns the snapshot's visible rows across fragments.
func (s Snapshot) TotalRows() int {
	n := 0
	for _, r := range s.Rows {
		n += r
	}
	return n
}

// TotalInserts returns the snapshot's visible inserts across fragments.
func (s Snapshot) TotalInserts() int {
	n := 0
	for _, r := range s.Inserts {
		n += r
	}
	return n
}

// UpdatesIn returns, for every main row updated within the snapshot, its
// latest value (store-wide sequence order deciding between fragments) — one
// pass over the delta, so bulk consumers stay O(mainRows + deltaRows).
func (d *Delta) UpdatesIn(s Snapshot) map[int]int64 {
	type upd struct {
		seq uint64
		v   int64
	}
	best := make(map[int]upd)
	for i, f := range d.frags {
		f.mu.RLock()
		n := s.Rows[i]
		if n > f.committed {
			n = f.committed
		}
		for j := 0; j < n; j++ {
			e := f.entries[j]
			if e.Row < 0 {
				continue
			}
			if b, ok := best[int(e.Row)]; !ok || e.Seq > b.seq {
				best[int(e.Row)] = upd{seq: e.Seq, v: f.values[e.Vid]}
			}
		}
		f.mu.RUnlock()
	}
	out := make(map[int]int64, len(best))
	for row, b := range best {
		out[row] = b.v
	}
	return out
}

// AppendInsertsIn appends the snapshot-visible inserted values to out in
// deterministic socket-major, append order — the order a merge materializes
// the new main rows in.
func (d *Delta) AppendInsertsIn(s Snapshot, out []int64) []int64 {
	for i, f := range d.frags {
		f.mu.RLock()
		n := s.Rows[i]
		if n > f.committed {
			n = f.committed
		}
		for j := 0; j < n; j++ {
			e := f.entries[j]
			if e.Row < 0 {
				out = append(out, f.values[e.Vid])
			}
		}
		f.mu.RUnlock()
	}
	return out
}

// AppendVisibleInserts appends every currently visible inserted value to out
// (socket-major, append order).
func (d *Delta) AppendVisibleInserts(out []int64) []int64 {
	return d.AppendInsertsIn(d.Snapshot(), out)
}

// TruncateMerged drops the snapshot's prefix from every fragment: the rows a
// completed merge folded into the main. Rows appended after the snapshot
// survive and stay visible. The fragment-local dictionary is rebuilt from
// the surviving entries (vids remapped), so merged-away values do not leak
// across merge cycles or inflate SizeBytes.
func (d *Delta) TruncateMerged(s Snapshot) {
	for i, f := range d.frags {
		n := s.Rows[i]
		f.mu.Lock()
		if n > f.committed {
			n = f.committed
		}
		if !f.synthetic {
			f.entries = append(f.entries[:0], f.entries[n:]...)
			oldValues := f.values
			f.values = make([]int64, 0, len(f.entries))
			f.dict = make(map[int64]uint32, len(f.entries))
			for j := range f.entries {
				f.entries[j].Vid = f.vidOf(oldValues[f.entries[j].Vid])
			}
		}
		f.committed -= n
		f.inserts -= s.Inserts[i]
		if f.inserts < 0 {
			f.inserts = 0
		}
		f.mu.Unlock()
	}
}

// BeginMerge acquires the store's merge latch so at most one background
// merge runs per column; it reports whether the caller won the latch.
func (d *Delta) BeginMerge() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.merging {
		return false
	}
	d.merging = true
	return true
}

// EndMerge releases the merge latch.
func (d *Delta) EndMerge() {
	d.mu.Lock()
	d.merging = false
	d.mu.Unlock()
}

// Merging reports whether a background merge holds the latch.
func (d *Delta) Merging() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.merging
}
