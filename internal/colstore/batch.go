package colstore

import (
	"fmt"
	mbits "math/bits"
)

// BatchSize is the fixed number of codes a decoding batch kernel unpacks per
// step — the vectorization unit of the chunk hot path. The decode-based loops
// in the package (materialization, index builds, delta-union
// materialization) process the indexvector one BatchSize batch at
// a time: a word-at-a-time unpack into a stack-resident code buffer, then
// flat kernels over the decoded codes. The range-predicate scans go one step
// further and never decode at all (see rangePlan). 1024 is a multiple of 64,
// so a batch starting on a 64-row boundary always starts on a word boundary
// for every bitcase, and the buffers a kernel needs (codes, selection vector,
// output) stay well inside the L1 cache.
const BatchSize = 1024

// sharedStrip is the number of 64-bit windows a shared scan preloads and
// splits per strip before sweeping the member predicates over them. 128
// windows keep the two half-window buffers at 2 KiB — resident in L1 across
// all member sweeps — while amortizing the per-member loop setup over
// hundreds of codes.
const sharedStrip = 128

// SharedRange is one member predicate of a shared batch scan, already
// encoded on dictionary codes: the member qualifies a row when its vid lies
// in [Lo, Hi]. A member with Lo > Hi matches nothing (an empty predicate
// window, the EncodePredicate !ok case).
type SharedRange struct {
	Lo, Hi uint32
}

// Get64 returns the 64 bits of the packed vector starting at the given bit
// offset, assembled branchlessly from two adjacent words. The vector's
// backing array carries one padding word beyond the packed data, so the
// second load is always in range and needs no boundary test; when the offset
// is word-aligned the second term shifts by 64, which Go defines as zero.
// This is the word-at-a-time load the batch kernels decode from, in the
// spirit of the SIMD register loads of Willhalm et al. [33].
func (v *PackedVector) Get64(bitPos uint64) uint64 {
	w := bitPos >> 6
	off := bitPos & 63
	return v.words[w]>>off | v.words[w+1]<<(64-off)
}

// fieldPlan precomputes, for one bitcase, the constants of the word-parallel
// range kernels: every 64-bit window read by Get64 holds k complete codes at
// bit offsets 0, bits, 2*bits, ..., and the kernel evaluates all of them at
// once with packed-field arithmetic instead of decoding them. Fields are
// split into even- and odd-indexed halves so each tested field has a zeroed
// field-width of headroom above it (the carry trick needs bits+1 bits per
// field); the odd half is brought onto even slots by shifting the window
// right by one field, which also keeps every carry bit below bit 64.
type fieldPlan struct {
	k     int    // complete fields per 64-bit window; >= 2 for every bitcase
	step  uint64 // bits consumed per window, k*bits
	maskE uint64 // the even-indexed field slots of the window
	maskO uint64 // the odd-indexed field slots, in window>>bits coordinates
	carE  uint64 // even-pass carry-bit positions: (i+1)*bits for even i < k
	carO  uint64 // odd-pass carry-bit positions: i*bits for odd i < k
	fld   [64]uint8
}

// matchMask combines the two carry masks into one mask with a single set bit
// per matching field, in ascending position order: even-pass carries move to
// (i+1)*bits-1 and odd-pass carries sit at i*bits, which never collide and
// order exactly like field indices for every bitcase. fld maps each combined
// bit position back to its field index.
func matchMask(me, mo uint64) uint64 { return me>>1 | mo }

// newFieldPlan builds the bitcase-dependent half of a range plan.
func newFieldPlan(bits uint) fieldPlan {
	b := uint64(bits)
	fieldMask := uint64(1)<<b - 1
	var p fieldPlan
	p.k = int(64 / b)
	p.step = uint64(p.k) * b
	for i := 0; i < p.k; i++ {
		slot := uint64(i) * b
		if i%2 == 0 {
			p.maskE |= fieldMask << slot
			p.carE |= 1 << (slot + b)
		} else {
			p.maskO |= fieldMask << (slot - b)
			p.carO |= 1 << slot
		}
	}
	// fld decodes the combined match mask (see matchMask): an even field i
	// lands at bit (i+1)*bits-1, an odd field i at bit i*bits.
	for i := 0; i < p.k; i++ {
		if i%2 == 0 {
			p.fld[uint64(i+1)*b-1] = uint8(i)
		} else {
			p.fld[uint64(i)*b] = uint8(i)
		}
	}
	return p
}

// rangeAddends builds the predicate-dependent half of a range plan: the two
// packed addends of the carry trick, replicated over every even slot. For a
// field f with headroom, f + (2^bits - lo) carries into the field's top+1
// bit exactly when f >= lo, and f + (2^bits - 1 - hi) carries exactly when
// f > hi; a field matches [lo, hi] when the first carry is set and the
// second is not. Unused slots hold zeroed fields, so their sums stay
// slot-local and their spurious carries are masked off by carE/carO.
func rangeAddends(bits uint, lo, hi uint32) (addLo, addHi uint64) {
	b := uint64(bits)
	aLo := uint64(1)<<b - uint64(lo)
	aHi := (uint64(1)<<b - 1) - uint64(hi)
	for slot := uint64(0); slot < 64; slot += 2 * b {
		addLo |= aLo << slot
		addHi |= aHi << slot
	}
	return addLo, addHi
}

// rangeMasks evaluates one window against one predicate: it returns the
// even- and odd-pass carry masks, one set bit per matching field. we and wo
// are the window's even and odd halves (w & maskE and w>>bits & maskO).
func (p *fieldPlan) rangeMasks(we, wo, addLo, addHi uint64) (me, mo uint64) {
	me = (we + addLo) &^ (we + addHi) & p.carE
	mo = (wo + addLo) &^ (wo + addHi) & p.carO
	return me, mo
}

// UnpackBatch decodes the codes of rows [from, from+len(dst)) into dst — the
// batch unpack every vectorized kernel is built on. One call replaces
// len(dst) scalar Get calls: bitcases dividing 64 extract a full word's
// worth of codes per word load, the remaining bitcases run a carry-based
// word-at-a-time loop that loads each packed word exactly once. dst must not
// extend past the vector's length.
func (v *PackedVector) UnpackBatch(from int, dst []uint32) {
	n := len(dst)
	if from < 0 || from+n > v.n {
		panic(fmt.Sprintf("colstore: unpack range [%d,%d) out of [0,%d)", from, from+n, v.n))
	}
	if n == 0 {
		return
	}
	bits := uint64(v.bits)
	mask := uint32(uint64(1)<<bits - 1)
	if 64%bits == 0 {
		v.unpackAligned(from, dst, mask)
		return
	}
	// Carry loop: keep the undecoded remainder of the current word in cur
	// and refill from the next word only when a code straddles the boundary.
	bitPos := uint64(from) * bits
	w := bitPos >> 6
	off := bitPos & 63
	cur := v.words[w] >> off
	avail := 64 - off
	for i := range dst {
		if avail >= bits {
			dst[i] = uint32(cur) & mask
			cur >>= bits
			avail -= bits
		} else {
			w++
			nxt := v.words[w]
			dst[i] = uint32(cur|nxt<<avail) & mask
			cur = nxt >> (bits - avail)
			avail += 64 - bits
		}
	}
}

// unpackAligned is the UnpackBatch fast path for bitcases dividing 64
// (1, 2, 4, 8, 16, 32): after a short prologue to the next word boundary,
// every packed word decodes to exactly 64/bits codes with constant shifts
// and no cross-word carries.
func (v *PackedVector) unpackAligned(from int, dst []uint32, mask uint32) {
	bits := uint64(v.bits)
	per := int(64 / bits)
	n := len(dst)
	i := 0
	for ; i < n && (from+i)%per != 0; i++ {
		dst[i] = v.Get(from + i)
	}
	w := uint64(from+i) * bits >> 6
	for ; i+per <= n; i, w = i+per, w+1 {
		word := v.words[w]
		for k := 0; k < per; k++ {
			dst[i+k] = uint32(word) & mask
			word >>= bits
		}
	}
	for ; i < n; i++ {
		dst[i] = v.Get(from + i)
	}
}

// ScanShared is the N-predicate shared-scan kernel: each 64-bit window of
// rows [from, to) is loaded and split ONCE and every member predicate is
// evaluated on it word-parallel, appending each member's qualifying absolute
// positions to outs[i]. This is the decode-once/compare-many loop the
// shared-scan cost model (exec.Costs.SharedPredCyclesPerByte) describes: the
// window load, the even/odd split, and the memory traffic over the
// indexvector are paid once per window, and each additional member costs
// only its two packed adds and mask merge. Each member's output is
// bit-identical to a private ScanRange with its window. outs must have
// len(preds) entries; the (possibly grown) slices are returned.
func (v *PackedVector) ScanShared(preds []SharedRange, from, to int, outs [][]uint32) [][]uint32 {
	if from < 0 || to > v.n || from > to {
		panic(fmt.Sprintf("colstore: shared scan range [%d,%d) out of [0,%d)", from, to, v.n))
	}
	if len(outs) != len(preds) {
		panic(fmt.Sprintf("colstore: shared scan with %d outputs for %d predicates", len(outs), len(preds)))
	}
	if v.bits == 12 {
		return v.scanShared12(preds, from, to, outs)
	}
	b := uint64(v.bits)
	p := newFieldPlan(v.bits)
	type member struct {
		addLo, addHi uint64
		skip         bool
	}
	members := make([]member, len(preds))
	for m, pr := range preds {
		if pr.Lo > pr.Hi {
			members[m].skip = true
			continue
		}
		members[m].addLo, members[m].addHi = rangeAddends(v.bits, pr.Lo, pr.Hi)
	}
	// Windows are loaded and split into strips of sharedStrip window halves,
	// then each member sweeps the in-cache strip: the per-member inner loop
	// is a flat two-add pass with no window loads, and the per-window work
	// that every member shares (Get64, the even/odd split, the memory
	// traffic over the packed words) is paid once per strip fill.
	var buf [sharedStrip][2]uint64
	base := from
	bitPos := uint64(from) * b
	for base+p.k <= to {
		stripStart := base
		nw := 0
		for nw < sharedStrip && base+p.k <= to {
			w := v.Get64(bitPos)
			buf[nw][0] = w & p.maskE
			buf[nw][1] = w >> b & p.maskO
			nw++
			base += p.k
			bitPos += p.step
		}
		strip := buf[:nw]
		kk := uint32(p.k)
		for m := range members {
			mb := &members[m]
			if mb.skip {
				continue
			}
			addLo, addHi := mb.addLo, mb.addHi
			carE, carO := p.carE, p.carO
			o := outs[m]
			wbase := uint32(stripStart)
			j := 0
			// Two strip windows per iteration, mirroring ScanRange's unroll:
			// the two mask computations are independent and pipeline.
			for ; j+2 <= len(strip); j += 2 {
				we1, wo1 := strip[j][0], strip[j][1]
				we2, wo2 := strip[j+1][0], strip[j+1][1]
				mk1 := matchMask((we1+addLo)&^(we1+addHi)&carE, (wo1+addLo)&^(wo1+addHi)&carO)
				mk2 := matchMask((we2+addLo)&^(we2+addHi)&carE, (wo2+addLo)&^(wo2+addHi)&carO)
				for ; mk1 != 0; mk1 &= mk1 - 1 {
					o = append(o, wbase+uint32(p.fld[mbits.TrailingZeros64(mk1)]))
				}
				for ; mk2 != 0; mk2 &= mk2 - 1 {
					o = append(o, wbase+kk+uint32(p.fld[mbits.TrailingZeros64(mk2)]))
				}
				wbase += 2 * kk
			}
			for ; j < len(strip); j++ {
				we, wo := strip[j][0], strip[j][1]
				me := (we + addLo) &^ (we + addHi) & carE
				mo := (wo + addLo) &^ (wo + addHi) & carO
				for mk := matchMask(me, mo); mk != 0; mk &= mk - 1 {
					o = append(o, wbase+uint32(p.fld[mbits.TrailingZeros64(mk)]))
				}
				wbase += kk
			}
			outs[m] = o
		}
	}
	// Tail: fewer than one window of rows left.
	for i := base; i < to; i++ {
		outs = v.sharedRow(preds, i, outs)
	}
	return outs
}

// sharedRow appends row i to the outputs of the members whose window holds
// its code: the decode-once test of a row outside any whole window or
// group, one Get with every member compared on the decoded code.
func (v *PackedVector) sharedRow(preds []SharedRange, i int, outs [][]uint32) [][]uint32 {
	c := v.Get(i)
	for m, pr := range preds {
		if pr.Lo <= pr.Hi && c-pr.Lo <= pr.Hi-pr.Lo {
			outs[m] = append(outs[m], uint32(i))
		}
	}
	return outs
}
