// Package colstore implements the main-memory column-store data structures
// of Section 4.1 of the paper: dictionary-encoded columns with a sorted
// dictionary, a bit-compressed indexvector (IV) of value identifiers (vids),
// and an optional inverted index (IX) mapping vids to IV positions. Scans
// and materialization are functionally real; their memory placement and
// timing are handled by the placement and core packages via simulated
// address ranges attached to each component.
package colstore

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"numacs/internal/delta"
	"numacs/internal/memsim"
	"numacs/internal/psm"
)

// ValueSize is the width of a materialized (decoded) value in bytes; the
// paper's workload uses integer columns.
const ValueSize = 8

// ExpectedDistinct returns the expected number of distinct values when
// drawing n uniform values from a domain of size d.
func ExpectedDistinct(n int, d int64) int {
	if d <= 0 {
		return 1
	}
	exp := float64(d) * (1 - math.Exp(-float64(n)/float64(d)))
	e := int(exp + 0.5)
	if e < 1 {
		e = 1
	}
	if e > n {
		e = n
	}
	return e
}

// NewSynthetic builds a column with realistic sizes (bit-packed IV, sized
// dictionary and optional index) but no data: rows uniform draws from
// [0, domain).
func NewSynthetic(name string, rows int, domain int64, withIndex bool) *Column {
	distinct := ExpectedDistinct(rows, domain)
	bc := uint(1)
	for (1 << bc) < distinct {
		bc++
	}
	c := &Column{
		Name:      name,
		Bitcase:   bc,
		Rows:      rows,
		IVec:      NewPackedVector(bc, rows),
		Dict:      make([]int64, distinct),
		Synthetic: true,
		Domain:    domain,
	}
	if withIndex {
		c.Idx = &Index{
			Offsets:  make([]uint32, distinct+1),
			Postings: make([]uint32, rows),
		}
	}
	return c
}

// Index is the optional inverted index of Figure 3: Offsets[vid] indexes
// into Postings, which holds the (sorted) IV positions of each vid.
type Index struct {
	Offsets  []uint32 // len = #vids + 1
	Postings []uint32 // len = #rows
}

// PositionsOf returns the IV positions holding the given vid.
func (ix *Index) PositionsOf(vid uint32) []uint32 {
	return ix.Postings[ix.Offsets[vid]:ix.Offsets[vid+1]]
}

// SizeBytes returns the memory footprint of the index.
func (ix *Index) SizeBytes() int64 {
	return int64(len(ix.Offsets)+len(ix.Postings)) * 4
}

// Component identifies one of the three data structures of a column.
type Component int

const (
	// IV is the bit-compressed indexvector of value ids.
	IV Component = iota
	// Dict is the sorted dictionary mapping vids to values.
	Dict
	// IX is the optional inverted index mapping vids to IV positions.
	IX
)

// String returns the paper's name for the component.
func (c Component) String() string {
	switch c {
	case IV:
		return "IV"
	case Dict:
		return "dict"
	case IX:
		return "IX"
	default:
		return fmt.Sprintf("component(%d)", int(c))
	}
}

// Column is a dictionary-encoded column (Figure 3). The simulated address
// ranges (IVRange etc.) and PSMs are populated when the column is placed by
// the placement package; scheduling consults the PSMs to define task
// affinities (Section 5.2).
type Column struct {
	Name    string
	Bitcase uint

	Rows int
	IVec *PackedVector
	Dict []int64
	Idx  *Index

	// Synthetic marks a column whose structures are correctly sized but hold
	// no data (the simulation harness uses analytic match counts, so the
	// values are never read). Domain is the generator's value domain, needed
	// to size per-part dictionaries when physically partitioning.
	Synthetic bool
	Domain    int64

	// Simulated placement metadata.
	IVRange   memsim.Range
	DictRange memsim.Range
	IXRange   memsim.Range
	IVPSM     *psm.PSM
	DictPSM   *psm.PSM
	IXPSM     *psm.PSM

	// Partitions covers the IV row space when the column is IVP-partitioned;
	// empty means a single part. Entries are row offsets: partition i spans
	// rows [Partitions[i], Partitions[i+1]).
	Partitions []int

	// ReplicaSockets lists the sockets holding a full replica of the column
	// (IV + dictionary + IX). Replication is the "other data placement" of
	// Section 4.2: it trades memory for the freedom to scan on any of the
	// replica sockets. Empty means unreplicated; when set, the primary copy
	// described by the ranges above lives on ReplicaSockets[0].
	ReplicaSockets []int

	// Replicas records the allocation metadata of every replica beyond the
	// primary copy (one entry per ReplicaSockets[1:] socket, in order), so
	// the adaptive placer can account replica memory against its budget and
	// tear stale replicas down again (Section 7's adaptive design applied to
	// the replication placement of Section 4.2).
	Replicas []Replica

	// Delta is the column's write-side delta store (per-socket uncompressed
	// fragments; see package delta). It is nil until the first write — the
	// read-only scan paths are untouched, byte for byte, for columns that
	// were never written. Scans union the main with the delta rows visible
	// at plan time; placement.MergeDelta folds the delta back into a rebuilt
	// main.
	Delta *delta.Delta
}

// Replica is the placement record of one extra replica of a column: the
// socket it lives on and the simulated address ranges of its components.
// It exists so replicas allocated by the adaptive placer can be freed when
// their traffic decays (replica teardown).
type Replica struct {
	Socket    int
	IVRange   memsim.Range
	DictRange memsim.Range
	IXRange   memsim.Range
}

// Bytes returns the page-granular simulated memory footprint of the replica.
func (r Replica) Bytes() int64 {
	b := (r.IVRange.Pages() + r.DictRange.Pages() + r.IXRange.Pages()) * memsim.PageSize
	return b
}

// ExtraReplicaBytes returns the page-granular bytes consumed by the column's
// replicas beyond the primary copy — the quantity the adaptive placer's
// replica budget (Section 7) caps.
func (c *Column) ExtraReplicaBytes() int64 {
	var b int64
	for _, r := range c.Replicas {
		b += r.Bytes()
	}
	return b
}

// Replicated reports whether the column has replicas. Replica selection for
// accesses lives in the exec layer (exec.BestReplica), which weighs access
// latency against current memory-controller load.
func (c *Column) Replicated() bool { return len(c.ReplicaSockets) > 1 }

// Build dictionary-encodes values into a column. When withIndex is set, the
// inverted index is built as well. The bitcase is the minimum width that
// fits the dictionary size, matching the paper's bit-compression.
func Build(name string, values []int64, withIndex bool) *Column {
	if len(values) == 0 {
		panic("colstore: empty column")
	}
	// Sort distinct values -> dictionary.
	dict := make([]int64, len(values))
	copy(dict, values)
	sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
	w := 0
	for i := 1; i < len(dict); i++ {
		if dict[i] != dict[w] {
			w++
			dict[w] = dict[i]
		}
	}
	dict = dict[:w+1]

	bitcase := uint(bits.Len(uint(len(dict) - 1)))
	if bitcase == 0 {
		bitcase = 1
	}
	iv := NewPackedVector(bitcase, len(values))
	for i, v := range values {
		vid := sort.Search(len(dict), func(j int) bool { return dict[j] >= v })
		iv.Set(i, uint32(vid))
	}
	c := &Column{
		Name:    name,
		Bitcase: bitcase,
		Rows:    len(values),
		IVec:    iv,
		Dict:    dict,
	}
	if withIndex {
		c.BuildIndex()
	}
	return c
}

// BuildIndex constructs the inverted index from the IV. Both passes (the
// vid histogram and the postings fill) decode the IV one batch at a time
// instead of one Get per row.
func (c *Column) BuildIndex() {
	var codes [BatchSize]uint32
	counts := make([]uint32, len(c.Dict)+1)
	for base := 0; base < c.Rows; base += BatchSize {
		n := c.Rows - base
		if n > BatchSize {
			n = BatchSize
		}
		c.IVec.UnpackBatch(base, codes[:n])
		for _, vid := range codes[:n] {
			counts[vid+1]++
		}
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	offsets := make([]uint32, len(counts))
	copy(offsets, counts)
	postings := make([]uint32, c.Rows)
	next := make([]uint32, len(c.Dict))
	copy(next, offsets[:len(c.Dict)])
	for base := 0; base < c.Rows; base += BatchSize {
		n := c.Rows - base
		if n > BatchSize {
			n = BatchSize
		}
		c.IVec.UnpackBatch(base, codes[:n])
		for i, vid := range codes[:n] {
			postings[next[vid]] = uint32(base + i)
			next[vid]++
		}
	}
	c.Idx = &Index{Offsets: offsets, Postings: postings}
}

// NumDistinct returns the dictionary size.
func (c *Column) NumDistinct() int { return len(c.Dict) }

// IVBytes returns the packed size of the indexvector.
func (c *Column) IVBytes() int64 { return c.IVec.SizeBytes() }

// DictBytes returns the dictionary size in bytes.
func (c *Column) DictBytes() int64 { return int64(len(c.Dict)) * ValueSize }

// TotalBytes returns the full footprint (IV + dict + IX).
func (c *Column) TotalBytes() int64 {
	t := c.IVBytes() + c.DictBytes()
	if c.Idx != nil {
		t += c.Idx.SizeBytes()
	}
	return t
}

// EncodePredicate translates a value-range predicate [loVal, hiVal] into a
// vid range [loVid, hiVid] via binary search on the dictionary (the
// predicate-encoding step of Section 5.2). ok is false when no dictionary
// value falls in the range.
func (c *Column) EncodePredicate(loVal, hiVal int64) (loVid, hiVid uint32, ok bool) {
	lo := sort.Search(len(c.Dict), func(i int) bool { return c.Dict[i] >= loVal })
	hi := sort.Search(len(c.Dict), func(i int) bool { return c.Dict[i] > hiVal })
	if lo >= hi {
		return 0, 0, false
	}
	return uint32(lo), uint32(hi - 1), true
}

// Value returns the decoded value at a row (for verification).
func (c *Column) Value(row int) int64 { return c.Dict[c.IVec.Get(row)] }

// ScanPositions scans rows [from, to) for vids in [loVid, hiVid] and appends
// matching positions to out (the low-selectivity result format).
func (c *Column) ScanPositions(loVid, hiVid uint32, from, to int, out []uint32) []uint32 {
	return c.IVec.ScanRange(loVid, hiVid, from, to, out)
}

// IndexLookupPositions collects, via the index, all IV positions holding
// vids in [loVid, hiVid]. Positions are returned in vid-major order, the
// natural output order of index lookups (Section 5.2).
func (c *Column) IndexLookupPositions(loVid, hiVid uint32, out []uint32) []uint32 {
	if c.Idx == nil {
		panic(fmt.Sprintf("colstore: column %s has no index", c.Name))
	}
	for vid := loVid; vid <= hiVid; vid++ {
		out = append(out, c.Idx.PositionsOf(vid)...)
	}
	return out
}

// Materialize decodes the values at the given IV positions into out
// (dictionary random accesses; the output-materialization phase of Section
// 5.2). out must have len(positions) capacity. Dense ascending runs — the
// common case, since find-phase position lists come out sorted — are decoded
// with one batch unpack of the covering row window and a gather over the
// decoded codes; sparse or unsorted stretches (index lookups emit vid-major
// order) fall back to per-row decode, where batching would stream more codes
// than it saves.
func (c *Column) Materialize(positions []uint32, out []int64) {
	var codes [BatchSize]uint32
	n := len(positions)
	i := 0
	for i < n {
		// Extend a strictly-ascending run whose window fits one batch.
		first := positions[i]
		j := i + 1
		for j < n && positions[j] > positions[j-1] && positions[j]-first < BatchSize {
			j++
		}
		count := j - i
		window := int(positions[j-1]-first) + 1
		if count >= 16 && count*2 >= window {
			c.IVec.UnpackBatch(int(first), codes[:window])
			for k := i; k < j; k++ {
				out[k] = c.Dict[codes[positions[k]-first]]
			}
		} else {
			for k := i; k < j; k++ {
				out[k] = c.Dict[c.IVec.Get(int(positions[k]))]
			}
		}
		i = j
	}
}

// MaterializeRange decodes the values of rows [from, to) into out — the
// contiguous bulk-decode used by delta merges and snapshot materialization:
// one batch unpack per BatchSize rows plus a dictionary gather, instead of a
// per-row IV probe. out must have to-from capacity.
func (c *Column) MaterializeRange(from, to int, out []int64) {
	var codes [BatchSize]uint32
	for base := from; base < to; base += BatchSize {
		n := to - base
		if n > BatchSize {
			n = BatchSize
		}
		c.IVec.UnpackBatch(base, codes[:n])
		o := out[base-from:]
		for i, vid := range codes[:n] {
			o[i] = c.Dict[vid]
		}
	}
}

// IVBytesForRows returns the packed IV bytes covering rows [from, to),
// rounded outward to byte boundaries — the bytes a scan task actually
// streams.
func (c *Column) IVBytesForRows(from, to int) int64 {
	startBit := uint64(from) * uint64(c.Bitcase)
	endBit := uint64(to) * uint64(c.Bitcase)
	return int64((endBit+7)/8 - startBit/8)
}

// IVOffsetForRow returns the byte offset within the IV of the word holding
// the given row, used to locate scan ranges within the IV's address range.
func (c *Column) IVOffsetForRow(row int) int64 {
	return int64(uint64(row) * uint64(c.Bitcase) / 8)
}

// DeltaRows returns the committed delta rows of the column (0 when the
// column was never written).
func (c *Column) DeltaRows() int {
	if c.Delta == nil {
		return 0
	}
	return c.Delta.Rows()
}

// DeltaBytes returns the committed simulated footprint of the column's delta
// (0 when the column was never written) — the quantity the adaptive placer's
// merge threshold compares against IVBytes.
func (c *Column) DeltaBytes() int64 {
	if c.Delta == nil {
		return 0
	}
	return c.Delta.SizeBytes()
}

// ValueWithDelta returns the current value of a main row: the latest visible
// delta update when one exists, the main's value otherwise. This is the
// point-lookup form; bulk consumers use ValuesWithDelta, which decodes the
// main store one batch at a time and touches the delta once instead of once
// per row.
func (c *Column) ValueWithDelta(row int) int64 {
	if c.Delta != nil {
		if v, ok := c.Delta.LatestUpdate(row); ok {
			return v
		}
	}
	return c.Value(row)
}

// ValuesWithDelta decodes the current values of main rows [from, to) into
// out: the main store portion is batch-decoded (one unpack per BatchSize
// rows), and the delta's latest visible updates are overlaid only on the
// rows that actually have one — rows with no overlay never pay a per-row
// delta probe or a per-row IV decode. out must have to-from capacity.
func (c *Column) ValuesWithDelta(from, to int, out []int64) {
	c.MaterializeRange(from, to, out)
	if c.Delta == nil {
		return
	}
	for row, u := range c.Delta.UpdatesIn(c.Delta.Snapshot()) {
		if row >= from && row < to {
			out[row-from] = u
		}
	}
}

// CountMatchesWithDelta counts the visible rows whose current value falls in
// [loVal, hiVal]: main rows with their latest update applied, plus visible
// delta inserts. This is the functional union-scan kernel the examples and
// tests verify the merge against (the harness uses analytic counts instead).
func (c *Column) CountMatchesWithDelta(loVal, hiVal int64) int {
	// Main store: encode the value predicate to a vid window once and run
	// the batched compare-on-codes counting kernel — no per-row dictionary
	// decode. Rows with a visible update are then corrected individually:
	// their main contribution is retracted and the update's value counted
	// instead.
	var updates map[int]int64
	if c.Delta != nil {
		updates = c.Delta.UpdatesIn(c.Delta.Snapshot())
	}
	n := 0
	loVid, hiVid, ok := c.EncodePredicate(loVal, hiVal)
	if ok {
		n = c.IVec.CountRange(loVid, hiVid, 0, c.Rows)
	}
	for row, u := range updates {
		if row >= c.Rows {
			continue
		}
		if ok {
			if v := c.Value(row); v >= loVal && v <= hiVal {
				n--
			}
		}
		if u >= loVal && u <= hiVal {
			n++
		}
	}
	if c.Delta != nil {
		for _, v := range c.Delta.AppendVisibleInserts(nil) {
			if v >= loVal && v <= hiVal {
				n++
			}
		}
	}
	return n
}

// MergedValuesAt materializes the column's contents as of a delta snapshot:
// every main row with its latest snapshot-visible update applied, followed
// by the snapshot-visible inserted values in deterministic socket-major
// order. Rows appended after the snapshot are excluded — they stay in the
// delta when a merge folds the snapshot. Only valid for real (non-synthetic)
// columns.
func (c *Column) MergedValuesAt(snap delta.Snapshot) []int64 {
	if c.Synthetic {
		panic("colstore: MergedValuesAt on a synthetic column")
	}
	// Main store: one batched decode of the whole row range, then the
	// snapshot's updates overlaid only on the rows that have one — the rows
	// without an overlay (almost all of them) never pay a per-row IV probe
	// or map lookup.
	out := make([]int64, c.Rows, c.Rows+snap.TotalInserts())
	c.MaterializeRange(0, c.Rows, out)
	if c.Delta != nil {
		for row, u := range c.Delta.UpdatesIn(snap) {
			if row < c.Rows {
				out[row] = u
			}
		}
		out = c.Delta.AppendInsertsIn(snap, out)
	}
	return out
}

// Reencode rebuilds the column's dictionary-encoded main in place from the
// given values — the re-encode half of a delta merge: new sorted dictionary,
// minimal bitcase, re-packed IV, and a rebuilt index when the column had
// one. Placement metadata (ranges, PSMs, partitions) is NOT touched; the
// caller (placement.MergeDelta) re-places the rebuilt structures.
func (c *Column) Reencode(values []int64) {
	if len(values) == 0 {
		panic("colstore: Reencode with no values")
	}
	nc := Build(c.Name, values, c.Idx != nil)
	c.Bitcase = nc.Bitcase
	c.Rows = nc.Rows
	c.IVec = nc.IVec
	c.Dict = nc.Dict
	c.Idx = nc.Idx
}

// ResizeSynthetic rebuilds a synthetic column's correctly-sized (but empty)
// structures for a new row count — the synthetic analogue of Reencode used
// when a delta merge grows the main. The value domain is unchanged, so the
// expected distinct count and bitcase follow the generator's analytics.
func (c *Column) ResizeSynthetic(rows int) {
	if !c.Synthetic {
		panic("colstore: ResizeSynthetic on a real column")
	}
	nc := NewSynthetic(c.Name, rows, c.Domain, c.Idx != nil)
	c.Bitcase = nc.Bitcase
	c.Rows = nc.Rows
	c.IVec = nc.IVec
	c.Dict = nc.Dict
	c.Idx = nc.Idx
}

// PartitionOf returns the index of the IVP partition containing the row, or
// 0 when the column is unpartitioned.
func (c *Column) PartitionOf(row int) int {
	if len(c.Partitions) == 0 {
		return 0
	}
	i := sort.Search(len(c.Partitions), func(i int) bool { return c.Partitions[i] > row })
	return i - 1
}

// NumPartitions returns the number of IVP partitions (1 when unpartitioned).
func (c *Column) NumPartitions() int {
	if len(c.Partitions) == 0 {
		return 1
	}
	return len(c.Partitions) - 1
}

// PartitionBounds returns the row range of IVP partition i.
func (c *Column) PartitionBounds(i int) (from, to int) {
	if len(c.Partitions) == 0 {
		if i != 0 {
			panic("colstore: column has a single partition")
		}
		return 0, c.Rows
	}
	return c.Partitions[i], c.Partitions[i+1]
}
