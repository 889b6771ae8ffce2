package colstore

import mbits "math/bits"

// Bitcase 12 has a decode of its own. Three packed words hold exactly 16
// twelve-bit codes, so a group of 16 rows that starts on a 16-row boundary
// starts on a word boundary. lanes12 widens such a group into four lane
// words, each holding four codes in 16-bit lanes: 12 code bits and 4 bits of
// headroom. The packed-field carry trick (see rangeAddends) then tests all
// four codes of a lane word in one pass, with no even/odd split and no
// unaligned window loads, and a match's lane is its trailing-zero count
// over 16. This is the per-bitcase routine style of SIMD-Scan (Willhalm et
// al.) and the lane layout of BitWeaving/H. ScanRange and ScanShared run it
// for every bitcase-12 vector.

// lane12Carry holds each 16-bit lane's carry bit, bit 12.
const lane12Carry = 0x1000_1000_1000_1000

// spread12 moves the four 12-bit codes in x's low 48 bits into the 16-bit
// lanes of a lane word, in order; x's top 16 bits are ignored.
func spread12(x uint64) uint64 {
	x = x&0xFF_FFFF | (x&0xFFFF_FF00_0000)<<8
	return x&0x0000_0FFF_0000_0FFF | (x&0x00FF_F000_00FF_F000)<<4
}

// lanes12 widens the 16 codes of the packed words w0, w1, w2 into four lane
// words, codes 0-3, 4-7, 8-11 and 12-15.
func lanes12(w0, w1, w2 uint64) (l0, l1, l2, l3 uint64) {
	return spread12(w0), spread12(w0>>48 | w1<<16), spread12(w1>>32 | w2<<32), spread12(w2 >> 16)
}

// addends12 returns the carry-trick addends of the window [lo, hi] in every
// 16-bit lane: a lane f carries into bit 12 of f+addLo exactly when f >= lo,
// and of f+addHi exactly when f > hi.
func addends12(lo, hi uint32) (addLo, addHi uint64) {
	const lanes = 0x0001_0001_0001_0001
	return (1<<12 - uint64(lo)) * lanes, (1<<12 - 1 - uint64(hi)) * lanes
}

// match12 returns the carry bits of the lanes of l inside the window.
func match12(l, addLo, addHi uint64) uint64 {
	return (l + addLo) &^ (l + addHi) & lane12Carry
}

// drain12 appends base plus the lane of every carry bit of mk, in order.
func drain12(out []uint32, base uint32, mk uint64) []uint32 {
	for ; mk != 0; mk &= mk - 1 {
		out = append(out, base+uint32(mbits.TrailingZeros64(mk)>>4))
	}
	return out
}

// scanRange12 is ScanRange for a bitcase-12 vector; lo <= hi.
func (v *PackedVector) scanRange12(lo, hi uint32, from, to int, out []uint32) []uint32 {
	i := from
	for ; i < to && i%16 != 0; i++ {
		if v.Get(i)-lo <= hi-lo {
			out = append(out, uint32(i))
		}
	}
	addLo, addHi := addends12(lo, hi)
	for w := i / 16 * 3; i+16 <= to; i, w = i+16, w+3 {
		g := v.words[w : w+3 : w+3]
		l0, l1, l2, l3 := lanes12(g[0], g[1], g[2])
		m0, m1 := match12(l0, addLo, addHi), match12(l1, addLo, addHi)
		m2, m3 := match12(l2, addLo, addHi), match12(l3, addLo, addHi)
		if m0|m1|m2|m3 != 0 {
			base := uint32(i)
			out = drain12(out, base, m0)
			out = drain12(out, base+4, m1)
			out = drain12(out, base+8, m2)
			out = drain12(out, base+12, m3)
		}
	}
	for ; i < to; i++ {
		if v.Get(i)-lo <= hi-lo {
			out = append(out, uint32(i))
		}
	}
	return out
}

// shared12Strip is the number of 16-row groups scanShared12 widens per
// strip: 64 groups of four lane words keep the strip at 2 KiB, like
// ScanShared's.
const shared12Strip = 64

// scanShared12 is ScanShared for a bitcase-12 vector: each strip of groups
// is widened into lane words once, and every member sweeps them.
func (v *PackedVector) scanShared12(preds []SharedRange, from, to int, outs [][]uint32) [][]uint32 {
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
		members[m].addLo, members[m].addHi = addends12(pr.Lo, pr.Hi)
	}
	i := from
	for ; i < to && i%16 != 0; i++ {
		outs = v.sharedRow(preds, i, outs)
	}
	var strip [shared12Strip][4]uint64
	for i+16 <= to {
		start, n := i, 0
		for w := i / 16 * 3; n < shared12Strip && i+16 <= to; i, w, n = i+16, w+3, n+1 {
			g := v.words[w : w+3 : w+3]
			strip[n][0], strip[n][1], strip[n][2], strip[n][3] = lanes12(g[0], g[1], g[2])
		}
		for m := range members {
			mb := &members[m]
			if mb.skip {
				continue
			}
			addLo, addHi := mb.addLo, mb.addHi
			o := outs[m]
			base := uint32(start)
			for g := range strip[:n] {
				ls := &strip[g]
				m0, m1 := match12(ls[0], addLo, addHi), match12(ls[1], addLo, addHi)
				m2, m3 := match12(ls[2], addLo, addHi), match12(ls[3], addLo, addHi)
				// Most groups match nothing at a member's selectivity: one
				// test skips all four drains.
				if m0|m1|m2|m3 != 0 {
					o = drain12(o, base, m0)
					o = drain12(o, base+4, m1)
					o = drain12(o, base+8, m2)
					o = drain12(o, base+12, m3)
				}
				base += 16
			}
			outs[m] = o
		}
	}
	for ; i < to; i++ {
		outs = v.sharedRow(preds, i, outs)
	}
	return outs
}
