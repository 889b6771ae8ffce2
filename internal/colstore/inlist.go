package colstore

// VidSet is a bitset over value identifiers, the "list of qualifying vid"
// the paper builds for complex predicates before scanning (Section 5.2 and
// Willhalm et al. [34]): when a predicate is not a contiguous range (IN
// lists, disjunctions, string patterns evaluated on the dictionary), the
// qualifying vids are collected first and the scan probes the set per row.
type VidSet struct {
	words []uint64
	n     int
}

// NewVidSet creates a set for dictionaries of the given size.
func NewVidSet(dictSize int) *VidSet {
	return &VidSet{words: make([]uint64, (dictSize+63)/64)}
}

// Add inserts a vid.
func (s *VidSet) Add(vid uint32) {
	w := vid / 64
	if s.words[w]&(1<<(vid%64)) == 0 {
		s.words[w] |= 1 << (vid % 64)
		s.n++
	}
}

// Contains reports membership.
func (s *VidSet) Contains(vid uint32) bool {
	w := vid / 64
	if int(w) >= len(s.words) {
		return false
	}
	return s.words[w]&(1<<(vid%64)) != 0
}

// Len returns the number of vids in the set.
func (s *VidSet) Len() int { return s.n }

// EncodeInList translates an IN-list of real values into a vid set via
// binary searches on the dictionary; values absent from the dictionary are
// skipped.
func (c *Column) EncodeInList(values []int64) *VidSet {
	s := NewVidSet(len(c.Dict))
	for _, v := range values {
		if lo, hi, ok := c.EncodePredicate(v, v); ok {
			for vid := lo; vid <= hi; vid++ {
				s.Add(vid)
			}
		}
	}
	return s
}

// ScanInList appends the positions in [from, to) whose vid is in the set —
// the complex-predicate scan kernel, batched: each BatchSize batch is
// unpacked once and the set probe runs over the decoded codes (InListSelect).
func (v *PackedVector) ScanInList(set *VidSet, from, to int, out []uint32) []uint32 {
	var codes [BatchSize]uint32
	var sel [BatchSize]uint16
	for base := from; base < to; base += BatchSize {
		n := to - base
		if n > BatchSize {
			n = BatchSize
		}
		v.UnpackBatch(base, codes[:n])
		k := InListSelect(codes[:n], set, sel[:])
		for _, s := range sel[:k] {
			out = append(out, uint32(base)+uint32(s))
		}
	}
	return out
}

// ScanInListPositions scans rows [from, to) of the column for vids in the
// set and appends matching positions.
func (c *Column) ScanInListPositions(set *VidSet, from, to int, out []uint32) []uint32 {
	return c.IVec.ScanInList(set, from, to, out)
}
