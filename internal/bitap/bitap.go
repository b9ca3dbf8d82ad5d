// Package bitap implements the baseline Bitap algorithm (Baeza-Yates &
// Gonnet 1992; Wu & Manber 1992) exactly as presented in Algorithm 1 of the
// GenASM paper, in both the classic single-word form (pattern limited to
// the machine word) and a straightforward multi-word form (the paper's
// "long read support" modification from Section 5, without windowing).
//
// These implementations are the reference points for the GenASM core: the
// single-word version demonstrates the word-length limitation the paper
// sets out to remove (Section 3.1), and the multi-word version is the
// non-windowed GenASM-DC used for pre-alignment filtering (Section 8) and
// for the divide-and-conquer ablation (Section 10.5).
package bitap

import (
	"errors"
	"fmt"

	"genasm/internal/alphabet"
	"genasm/internal/bitvec"
)

// Match records an approximate occurrence of the pattern in the text.
type Match struct {
	// Loc is the text position where the occurrence starts.
	Loc int
	// Dist is the number of edits of the occurrence (minimum d at which
	// the MSB of R[d] became 0 at this position).
	Dist int
}

// ErrPatternTooLong is returned by the single-word functions when the
// pattern exceeds the 64-bit machine word — the exact limitation that
// motivates GenASM's multi-word bitvectors (Section 3.1).
var ErrPatternTooLong = errors.New("bitap: pattern longer than machine word (64)")

// Search runs the classic single-word Bitap over text, reporting every
// position where the pattern matches with at most k edits. Pattern and
// text must be encoded with the same alphabet (dense codes). The text is
// scanned right to left as in Algorithm 1, so matches are reported in
// decreasing Loc order.
func Search(a *alphabet.Alphabet, text, pattern []byte, k int) ([]Match, error) {
	m := len(pattern)
	if m == 0 {
		return nil, errors.New("bitap: empty pattern")
	}
	if m > bitvec.WordSize {
		return nil, ErrPatternTooLong
	}
	if k < 0 {
		return nil, fmt.Errorf("bitap: negative edit distance threshold %d", k)
	}

	// Pre-processing: pattern bitmasks, one word per letter.
	pm := make([]uint64, a.Size())
	for i := range pm {
		pm[i] = ^uint64(0)
	}
	for pos, c := range pattern {
		pm[c] &^= 1 << uint(m-1-pos)
	}

	msb := uint64(1) << uint(m-1)
	r := make([]uint64, k+1)
	oldR := make([]uint64, k+1)
	for d := range r {
		r[d] = ^uint64(0)
	}

	var matches []Match
	for i := len(text) - 1; i >= 0; i-- {
		curPM := pm[text[i]]
		copy(oldR, r)
		r[0] = oldR[0]<<1 | curPM
		for d := 1; d <= k; d++ {
			del := oldR[d-1]
			sub := oldR[d-1] << 1
			ins := r[d-1] << 1
			match := oldR[d]<<1 | curPM
			r[d] = del & sub & ins & match
		}
		for d := 0; d <= k; d++ {
			if r[d]&msb == 0 {
				matches = append(matches, Match{Loc: i, Dist: d})
				break
			}
		}
	}
	return matches, nil
}

// Distance returns the minimum number of edits over all semi-global
// occurrences of pattern in text (pattern fully consumed, occurrence may
// start anywhere), or k+1 if no occurrence within k edits exists.
// Single-word variant; see MultiWord for longer patterns.
func Distance(a *alphabet.Alphabet, text, pattern []byte, k int) (int, error) {
	matches, err := Search(a, text, pattern, k)
	if err != nil {
		return 0, err
	}
	best := k + 1
	for _, m := range matches {
		if m.Dist < best {
			best = m.Dist
		}
	}
	return best, nil
}

// MultiWord is the non-windowed multi-word Bitap: GenASM-DC's long-read
// support (Section 5) without the divide-and-conquer step. Bitvectors span
// ceil(m/64) words; shifting carries the MSB of word w-1 into the LSB of
// word w, exactly the scheme the paper describes.
//
// The zero value is not usable; construct with NewMultiWord.
type MultiWord struct {
	a  *alphabet.Alphabet
	pm *alphabet.PatternMasks
	m  int
	nw int
	k  int

	// r and old hold R[0..k] at the current and the previous text
	// position, one row of nw words per level. ones is the mask of an
	// end-padding sentinel position, which matches no letter.
	r, old []uint64
	ones   []uint64
}

// fixedWords is the row width of the unrolled step: patterns of 193 to
// 256 characters, which covers 250 bp short reads.
const fixedWords = 4

// NewMultiWord prepares a multi-word Bitap searcher for the given encoded
// pattern and maximum edit distance k.
func NewMultiWord(a *alphabet.Alphabet, pattern []byte, k int) (*MultiWord, error) {
	if len(pattern) == 0 {
		return nil, errors.New("bitap: empty pattern")
	}
	if k < 0 {
		return nil, fmt.Errorf("bitap: negative edit distance threshold %d", k)
	}
	mw := &MultiWord{
		a:  a,
		pm: alphabet.GeneratePatternMasks(a, pattern),
		m:  len(pattern),
		nw: bitvec.Words(len(pattern)),
		k:  k,
	}
	mw.sizeScratch()
	return mw, nil
}

// Clone returns a searcher that shares the receiver's pattern masks (the
// expensive pre-processing of Algorithm 1, line 4) but owns private scratch
// rows, so clones of one compiled pattern can search concurrently. Clones
// must not be Reset: the shared masks would be regenerated under readers.
func (mw *MultiWord) Clone() *MultiWord {
	c := &MultiWord{a: mw.a, pm: mw.pm, m: mw.m, nw: mw.nw, k: mw.k}
	c.sizeScratch()
	return c
}

// Reset re-targets the searcher at a new encoded pattern and threshold,
// reusing mask and row storage where capacity allows — the allocation-free
// path for scratch pools that serve many different patterns. It must not
// be called on a searcher whose masks are shared with a Clone.
func (mw *MultiWord) Reset(pattern []byte, k int) error {
	if len(pattern) == 0 {
		return errors.New("bitap: empty pattern")
	}
	if k < 0 {
		return fmt.Errorf("bitap: negative edit distance threshold %d", k)
	}
	mw.pm.GenerateInto(mw.a, pattern)
	mw.m = len(pattern)
	mw.nw = bitvec.Words(len(pattern))
	mw.k = k
	mw.sizeScratch()
	return nil
}

// sizeScratch (re)shapes the rows and the end-padding mask for the current
// (nw, k), growing their storage only when needed.
func (mw *MultiWord) sizeScratch() {
	need := (mw.k + 1) * mw.nw
	if cap(mw.r) < need {
		mw.r = make([]uint64, need)
		mw.old = make([]uint64, need)
	}
	mw.r, mw.old = mw.r[:need], mw.old[:need]
	if len(mw.ones) < mw.nw {
		mw.ones = make([]uint64, mw.nw)
		bitvec.Fill(mw.ones, ^uint64(0))
	}
}

// Pattern length in characters.
func (mw *MultiWord) PatternLen() int { return mw.m }

// Search scans the encoded text and returns all matches with at most k
// edits, in decreasing location order. It keeps the raw Algorithm 1
// semantics: no end padding.
func (mw *MultiWord) Search(text []byte) []Match {
	var matches []Match
	msb, nw := mw.m-1, mw.nw
	mw.scan(text, 0, func(i int, r []uint64) bool {
		for d := 0; d <= mw.k; d++ {
			if bitvec.IsZeroBit(r[d*nw:(d+1)*nw], msb) {
				matches = append(matches, Match{Loc: i, Dist: d})
				break
			}
		}
		return true
	})
	return matches
}

// Within reports whether the pattern occurs in text with at most k edits,
// semi-globally: the pattern is consumed in full, the occurrence may start
// and end anywhere. This is the decision GenASM-DC makes as a
// pre-alignment filter (Section 8): only the distance against the
// threshold matters, so the scan stops at the first hit or as soon as no
// hit is reachable.
//
// The scan is end-padded. The right-to-left recurrence cannot represent
// pattern insertions past the end of the text, so it would overcount
// alignments pressing against the text end by their trailing insertions.
// Padding scans one sentinel position first, whose mask matches nothing.
// After it R[d] has bits 0..d-1 zero: every pattern suffix of at most d
// letters, inserted past the text end at one edit per letter. That is a
// fixed point, so further sentinels would change nothing. Hits count only
// at real text positions.
//
// Rows grow with the level (a zero in R[d] is a zero in R[d+1]), so a hit
// at any level shows as a zero MSB in R[k]: that is the accept test.
// Reject: a zero at bit j of R[d] puts one at bit j+k-d of R[k] through
// insertions, so R[k]'s highest zero bit rises at most one bit per
// position, and one at position i reaches the MSB only if it sits at bit
// m-1-i or above. A chain not yet born enters at bit 0 of R[0] at some
// position p < i and reaches at most bit k+p <= k+i-1 by position 0,
// which is below the MSB once i+k < m. From then on, R[k] without a zero
// in bits m-1-i..m-1 means no position left can hit.
func (mw *MultiWord) Within(text []byte) bool {
	m, k, nw := mw.m, mw.k, mw.nw
	hit := false
	mw.scan(text, min(k, 1), func(i int, r []uint64) bool {
		rk := r[k*nw : (k+1)*nw]
		if i < len(text) && bitvec.IsZeroBit(rk, m-1) {
			hit = true
			return false
		}
		return i+k >= m || hasZero(rk, m-1-i, m-1)
	})
	return hit
}

// hasZero reports whether v has a zero bit in [lo, hi].
func hasZero(v []uint64, lo, hi int) bool {
	for w := lo >> 6; w <= hi>>6; w++ {
		z := ^v[w]
		if w == lo>>6 {
			z &= ^uint64(0) << uint(lo&63)
		}
		if w == hi>>6 {
			z &= ^uint64(0) >> uint(63-hi&63)
		}
		if z != 0 {
			return true
		}
	}
	return false
}

// scan runs the DC recurrence right to left over pad end-padding
// sentinels and then the text, calling visit with each position and its
// rows R[0..k] (nw words per level). Returning false from visit stops
// the scan.
func (mw *MultiWord) scan(text []byte, pad int, visit func(i int, r []uint64) bool) {
	k, nw := mw.k, mw.nw
	// Both row sets are scratch; only the all-ones start must be the
	// first position's old rows.
	r, old, ones := mw.r, mw.old, mw.ones[:nw]
	bitvec.Fill(r, ^uint64(0))
	for i := len(text) - 1 + pad; i >= 0; i-- {
		pm := ones
		if i < len(text) {
			pm = mw.pm.Mask(text[i])
		}
		// The previous position's rows become old; every row of r is
		// overwritten.
		r, old = old, r
		if nw == fixedWords {
			step4(r, old, pm, k)
		} else {
			step(r, old, pm, k, nw)
		}
		if !visit(i, r) {
			return
		}
	}
}

// step computes one position's rows r from the previous position's rows
// old and the text letter's mask pm, for rows of nw words:
//
//	R[0] = old R[0]<<1 | PM
//	R[d] = old R[d-1] & (old R[d-1] & R[d-1])<<1 & (old R[d]<<1 | PM)
//
// the deletion, substitution+insertion and match terms of Algorithm 1
// (substitution and insertion share one shift).
func step(r, old, pm []uint64, k, nw int) {
	bitvec.ShiftLeft1Or(r[:nw], old[:nw], pm)
	for d := 1; d <= k; d++ {
		rd, rp := r[d*nw:(d+1)*nw], r[(d-1)*nw:d*nw]
		od, op := old[d*nw:(d+1)*nw], old[(d-1)*nw:d*nw]
		var carryT, carryO uint64
		for w := range rd {
			t := op[w] & rp[w]
			rd[w] = op[w] & (t<<1 | carryT) & (od[w]<<1 | carryO | pm[w])
			carryT, carryO = t>>63, od[w]>>63
		}
	}
}

// step4 is step unrolled for four-word rows. R[d-1] stays in registers
// from one level to the next, so each level stores one row and loads the
// two old rows it needs.
func step4(r, old, mask []uint64, k int) {
	pm := (*[fixedWords]uint64)(mask)
	old = old[:(k+1)*fixedWords]
	// a is old R[d-1], b is R[d-1].
	a := (*[fixedWords]uint64)(old)
	b0 := a[0]<<1 | pm[0]
	b1 := a[1]<<1 | a[0]>>63 | pm[1]
	b2 := a[2]<<1 | a[1]>>63 | pm[2]
	b3 := a[3]<<1 | a[2]>>63 | pm[3]
	*(*[fixedWords]uint64)(r) = [fixedWords]uint64{b0, b1, b2, b3}
	for d := fixedWords; d < len(old); d += fixedWords {
		o := (*[fixedWords]uint64)(old[d:])
		t0, t1, t2, t3 := a[0]&b0, a[1]&b1, a[2]&b2, a[3]&b3
		b0 = a[0] & (t0 << 1) & (o[0]<<1 | pm[0])
		b1 = a[1] & (t1<<1 | t0>>63) & (o[1]<<1 | o[0]>>63 | pm[1])
		b2 = a[2] & (t2<<1 | t1>>63) & (o[2]<<1 | o[1]>>63 | pm[2])
		b3 = a[3] & (t3<<1 | t2>>63) & (o[3]<<1 | o[2]>>63 | pm[3])
		*(*[fixedWords]uint64)(r[d:]) = [fixedWords]uint64{b0, b1, b2, b3}
		a = o
	}
}
