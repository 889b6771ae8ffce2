package colstore

import (
	"fmt"
	"math/bits"
)

// PackedVector is a bit-compressed integer vector: n values stored with a
// fixed number of bits each ("bitcase" in the paper), packed contiguously
// into 64-bit words. It is the in-memory format of the indexvector, matching
// the SIMD-scannable layout of Willhalm et al. [33]; the Go scan kernels in
// scan.go operate on whole words the way the SSE kernels operate on vector
// registers.
type PackedVector struct {
	bits  uint // bits per value, 1..32
	n     int
	words []uint64
}

// NewPackedVector creates a vector of n values of the given width. The
// backing array carries one padding word beyond the packed data so the batch
// kernels' two-word window load (Get64) never needs a boundary test; the
// padding is an implementation detail and is excluded from SizeBytes.
func NewPackedVector(bits uint, n int) *PackedVector {
	if bits < 1 || bits > 32 {
		panic(fmt.Sprintf("colstore: bitcase %d out of range [1,32]", bits))
	}
	words := (uint64(n)*uint64(bits) + 63) / 64
	return &PackedVector{bits: bits, n: n, words: make([]uint64, words+1)}
}

// PackValues builds a packed vector from a slice of values.
func PackValues(bits uint, values []uint32) *PackedVector {
	v := NewPackedVector(bits, len(values))
	for i, x := range values {
		v.Set(i, x)
	}
	return v
}

// Bits returns the bitcase.
func (v *PackedVector) Bits() uint { return v.bits }

// Len returns the number of values.
func (v *PackedVector) Len() int { return v.n }

// SizeBytes returns the packed size in bytes (whole words, excluding the
// kernel padding word).
func (v *PackedVector) SizeBytes() int64 {
	return int64((uint64(v.n)*uint64(v.bits) + 63) / 64 * 8)
}

// Set stores a value at position i. The value must fit in the bitcase.
func (v *PackedVector) Set(i int, x uint32) {
	if uint64(x) >= 1<<v.bits {
		panic(fmt.Sprintf("colstore: value %d does not fit in %d bits", x, v.bits))
	}
	bitPos := uint64(i) * uint64(v.bits)
	word := bitPos / 64
	off := bitPos % 64
	mask := uint64(1)<<v.bits - 1
	v.words[word] = v.words[word]&^(mask<<off) | uint64(x)<<off
	if off+uint64(v.bits) > 64 {
		spill := off + uint64(v.bits) - 64
		hiMask := uint64(1)<<spill - 1
		v.words[word+1] = v.words[word+1]&^hiMask | uint64(x)>>(uint64(v.bits)-spill)
	}
}

// Get loads the value at position i.
func (v *PackedVector) Get(i int) uint32 {
	bitPos := uint64(i) * uint64(v.bits)
	word := bitPos / 64
	off := bitPos % 64
	mask := uint64(1)<<v.bits - 1
	x := v.words[word] >> off
	if off+uint64(v.bits) > 64 {
		x |= v.words[word+1] << (64 - off)
	}
	return uint32(x & mask)
}

// ScanRange appends to out the positions in [from, to) whose value lies in
// [lo, hi], the core predicate kernel of the paper's scans. It runs the
// word-parallel batch kernel: every 64-bit window (Get64) holds k complete
// codes, and the packed-field carry trick (rangePlan) tests all of them with
// two adds per half-window — the codes are never decoded, matching the
// SIMD-register comparisons of Willhalm et al. [33]. Matching positions come
// out in ascending order. scanRangeScalar is the retained scalar reference
// the differential tests pin this against.
func (v *PackedVector) ScanRange(lo, hi uint32, from, to int, out []uint32) []uint32 {
	if from < 0 || to > v.n || from > to {
		panic(fmt.Sprintf("colstore: scan range [%d,%d) out of [0,%d)", from, to, v.n))
	}
	if lo > hi {
		return out
	}
	if v.bits == 12 {
		return v.scanRange12(lo, hi, from, to, out)
	}
	b := uint64(v.bits)
	p := newFieldPlan(v.bits)
	addLo, addHi := rangeAddends(v.bits, lo, hi)
	maskE, maskO, carE, carO := p.maskE, p.maskO, p.carE, p.carO
	base := from
	bitPos := uint64(from) * b
	// Two windows per iteration: the two mask computations carry no
	// dependency on each other, so they pipeline; narrow odd bitcases (few
	// codes per window) gain the most from the halved loop overhead.
	for base+2*p.k <= to {
		w1 := v.Get64(bitPos)
		w2 := v.Get64(bitPos + p.step)
		we1, wo1 := w1&maskE, w1>>b&maskO
		we2, wo2 := w2&maskE, w2>>b&maskO
		mk1 := matchMask((we1+addLo)&^(we1+addHi)&carE, (wo1+addLo)&^(wo1+addHi)&carO)
		mk2 := matchMask((we2+addLo)&^(we2+addHi)&carE, (wo2+addLo)&^(wo2+addHi)&carO)
		// The combined match masks drain in ascending position order with
		// one branch-free bit-clear per match (see matchMask).
		for ; mk1 != 0; mk1 &= mk1 - 1 {
			out = append(out, uint32(base)+uint32(p.fld[bits.TrailingZeros64(mk1)]))
		}
		for ; mk2 != 0; mk2 &= mk2 - 1 {
			out = append(out, uint32(base+p.k)+uint32(p.fld[bits.TrailingZeros64(mk2)]))
		}
		base += 2 * p.k
		bitPos += 2 * p.step
	}
	for base+p.k <= to {
		w := v.Get64(bitPos)
		we, wo := w&maskE, w>>b&maskO
		for mk := matchMask((we+addLo)&^(we+addHi)&carE, (wo+addLo)&^(wo+addHi)&carO); mk != 0; mk &= mk - 1 {
			out = append(out, uint32(base)+uint32(p.fld[bits.TrailingZeros64(mk)]))
		}
		base += p.k
		bitPos += p.step
	}
	for i := base; i < to; i++ {
		if v.Get(i)-lo <= hi-lo {
			out = append(out, uint32(i))
		}
	}
	return out
}

// ScanRangeBitvector sets a bit in dst for every position in [from, to)
// whose value lies in [lo, hi]. dst must have at least (v.Len()+63)/64
// words. Returns the number of matches. This is the high-selectivity result
// format of Section 5.2.
func (v *PackedVector) ScanRangeBitvector(lo, hi uint32, from, to int, dst []uint64) int {
	if from < 0 || to > v.n || from > to {
		panic(fmt.Sprintf("colstore: scan range [%d,%d) out of [0,%d)", from, to, v.n))
	}
	if lo > hi {
		return 0
	}
	b := uint64(v.bits)
	p := newFieldPlan(v.bits)
	addLo, addHi := rangeAddends(v.bits, lo, hi)
	matches := 0
	base := from
	bitPos := uint64(from) * b
	for base+p.k <= to {
		w := v.Get64(bitPos)
		me, mo := p.rangeMasks(w&p.maskE, w>>b&p.maskO, addLo, addHi)
		for mk := matchMask(me, mo); mk != 0; mk &= mk - 1 {
			pos := uint(base) + uint(p.fld[bits.TrailingZeros64(mk)])
			dst[pos/64] |= 1 << (pos % 64)
			matches++
		}
		base += p.k
		bitPos += p.step
	}
	for i := base; i < to; i++ {
		if v.Get(i)-lo <= hi-lo {
			dst[i/64] |= 1 << (uint(i) % 64)
			matches++
		}
	}
	return matches
}

// CountRange returns how many positions in [from, to) hold values in
// [lo, hi] without materializing them. It runs the word-parallel kernel and
// reduces each window's carry masks with a popcount — no decode, no
// selection vector, no branches in the hot loop.
func (v *PackedVector) CountRange(lo, hi uint32, from, to int) int {
	if lo > hi || from >= to {
		return 0
	}
	b := uint64(v.bits)
	p := newFieldPlan(v.bits)
	addLo, addHi := rangeAddends(v.bits, lo, hi)
	cnt := 0
	base := from
	bitPos := uint64(from) * b
	for base+p.k <= to {
		w := v.Get64(bitPos)
		me, mo := p.rangeMasks(w&p.maskE, w>>b&p.maskO, addLo, addHi)
		cnt += bits.OnesCount64(me) + bits.OnesCount64(mo)
		base += p.k
		bitPos += p.step
	}
	span := uint64(hi - lo)
	for i := base; i < to; i++ {
		cnt += int((uint64(v.Get(i)-lo) - span - 1) >> 63)
	}
	return cnt
}
