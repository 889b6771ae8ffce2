package colstore

// The retained scalar references of the batched kernels: the differential
// tests and fuzz targets pin every kernel against its reference here.

import (
	"fmt"

	"numacs/internal/delta"
)

// scanRangeScalar is the pre-batching scalar kernel (one Get-style decode
// per row), kept as the differential-test reference for ScanRange.
func (v *PackedVector) scanRangeScalar(lo, hi uint32, from, to int, out []uint32) []uint32 {
	if from < 0 || to > v.n || from > to {
		panic(fmt.Sprintf("colstore: scan range [%d,%d) out of [0,%d)", from, to, v.n))
	}
	if lo > hi {
		return out
	}
	bits := uint64(v.bits)
	mask := uint64(1)<<bits - 1
	bitPos := uint64(from) * bits
	for i := from; i < to; i++ {
		word := bitPos / 64
		off := bitPos % 64
		x := v.words[word] >> off
		if off+bits > 64 {
			x |= v.words[word+1] << (64 - off)
		}
		val := uint32(x & mask)
		if val >= lo && val <= hi {
			out = append(out, uint32(i))
		}
		bitPos += bits
	}
	return out
}

// packValues builds a packed vector from a slice of values.
func packValues(bits uint, values []uint32) *PackedVector {
	v := NewPackedVector(bits, len(values))
	for i, x := range values {
		v.Set(i, x)
	}
	return v
}

// countRangeScalar is the retained scalar reference for CountRange.
func (v *PackedVector) countRangeScalar(lo, hi uint32, from, to int) int {
	if lo > hi {
		return 0
	}
	n := 0
	for i := from; i < to; i++ {
		if val := v.Get(i); val >= lo && val <= hi {
			n++
		}
	}
	return n
}

// materializeScalar is the retained scalar reference for Materialize.
func (c *Column) materializeScalar(positions []uint32, out []int64) {
	for i, p := range positions {
		out[i] = c.Dict[c.IVec.Get(int(p))]
	}
}

// countMatchesWithDeltaScalar is the retained scalar reference for
// CountMatchesWithDelta: per-row decode with the update overlay applied
// inline.
func (c *Column) countMatchesWithDeltaScalar(loVal, hiVal int64) int {
	var updates map[int]int64
	if c.Delta != nil {
		updates = c.Delta.UpdatesIn(c.Delta.Snapshot())
	}
	n := 0
	for row := 0; row < c.Rows; row++ {
		v := c.Value(row)
		if u, ok := updates[row]; ok {
			v = u
		}
		if v >= loVal && v <= hiVal {
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

// mergedValuesAtScalar is the retained scalar reference for MergedValuesAt.
func (c *Column) mergedValuesAtScalar(snap delta.Snapshot) []int64 {
	var updates map[int]int64
	if c.Delta != nil {
		updates = c.Delta.UpdatesIn(snap)
	}
	out := make([]int64, 0, c.Rows+snap.TotalInserts())
	for row := 0; row < c.Rows; row++ {
		v := c.Value(row)
		if u, ok := updates[row]; ok {
			v = u
		}
		out = append(out, v)
	}
	if c.Delta != nil {
		out = c.Delta.AppendInsertsIn(snap, out)
	}
	return out
}
