// Package bitap implements the baseline Bitap algorithm (Baeza-Yates &
// Gonnet 1992; Wu & Manber 1992) exactly as presented in Algorithm 1 of the
// GenASM paper, in both the classic single-word form (pattern limited to
// the machine word) and a straightforward multi-word form (the paper's
// "long read support" modification from Section 5, without windowing).
//
// These implementations are the reference points for the GenASM core: the
// single-word version demonstrates the word-length limitation the paper
// sets out to remove (Section 3.1), and the multi-word version is the
// non-windowed GenASM-DC used for the divide-and-conquer ablation
// (Section 10.5). Its pre-alignment filtering decision (Section 8),
// MultiWord.Within, reads the same pattern masks but runs Myers'
// delta-vector scan: one row of ceil(m/64) words instead of k+1, since
// software cannot compute the error levels in parallel as the accelerator
// does, and a decision needs no traceback bitvectors.
package bitap

import (
	"errors"
	"fmt"
	"math/bits"

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

	// r and old are scratch rows, grown on first use. Search keeps R[0..k]
	// at the current and the previous text position in them, one row of
	// nw words per level; Within keeps its two delta vectors in their
	// first nw words.
	r, old []uint64
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
	return &MultiWord{
		a:  a,
		pm: alphabet.GeneratePatternMasks(a, pattern),
		m:  len(pattern),
		nw: bitvec.Words(len(pattern)),
		k:  k,
	}, nil
}

// Clone returns a searcher that shares the receiver's pattern masks (the
// expensive pre-processing of Algorithm 1, line 4) but owns private scratch
// rows, so clones of one compiled pattern can search concurrently. Clones
// must not be Reset: the shared masks would be regenerated under readers.
func (mw *MultiWord) Clone() *MultiWord {
	return &MultiWord{a: mw.a, pm: mw.pm, m: mw.m, nw: mw.nw, k: mw.k}
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
	return nil
}

// rows returns the two scratch rows sliced to n words each, growing their
// storage only when needed.
func (mw *MultiWord) rows(n int) (r, old []uint64) {
	if cap(mw.r) < n {
		mw.r, mw.old = make([]uint64, n), make([]uint64, n)
	}
	return mw.r[:n], mw.old[:n]
}

// Search scans the encoded text and returns all matches with at most k
// edits, in decreasing location order. It keeps the raw Algorithm 1
// semantics: no end padding.
func (mw *MultiWord) Search(text []byte) []Match {
	k, nw, msb := mw.k, mw.nw, mw.m-1
	// Both row sets are scratch; only the all-ones start must be the
	// first position's old rows.
	r, old := mw.rows((k + 1) * nw)
	bitvec.Fill(r, ^uint64(0))
	var matches []Match
	for i := len(text) - 1; i >= 0; i-- {
		// The previous position's rows become old; every row of r is
		// overwritten.
		r, old = old, r
		if pm := mw.pm.Mask(text[i]); nw == fixedWords {
			step4(r, old, pm, k)
		} else {
			step(r, old, pm, k, nw)
		}
		for d := 0; d <= k; d++ {
			if bitvec.IsZeroBit(r[d*nw:(d+1)*nw], msb) {
				matches = append(matches, Match{Loc: i, Dist: d})
				break
			}
		}
	}
	return matches
}

// Within reports whether the pattern occurs in text with at most k edits,
// semi-globally: the pattern is consumed in full, the occurrence may start
// and end anywhere. This is the decision GenASM-DC makes as a
// pre-alignment filter (Section 8). An empty text has no occurrence; a
// pattern of at most k letters occurs in any other text.
//
// Only the distance against the threshold matters, so Within does not run
// the k+1 Bitap rows of Search, which the accelerator computes in parallel
// processing elements but software computes one after another. It runs
// Myers' delta-vector scan (Myers 1999, in Hyyrö's form; the Edlib core
// the paper compares against in Section 10.4), one row of ceil(m/64)
// words whatever k is. That scan keeps no traceback bitvectors, which a
// decision does not need. It goes right to left like Search, so it reads
// the Bitap masks as they are: ^PM[c] has bit j set where the reversed
// pattern matches c, and the bits above m come out as rows that never
// match, which cannot disturb the rows below them (carries and shifts
// move upward only). Reversing both sequences keeps the semi-global
// distance.
//
// pv and mv hold the +1 and -1 vertical deltas between adjacent pattern
// rows of the DP column at the current letter. The first row costs
// nothing, so an occurrence may begin at any letter. score is the last
// row's cell: the best distance of an occurrence that ends, in scan order,
// at the current letter. It moves by at most one per letter, so the scan
// accepts as soon as score <= k and rejects as soon as score minus the
// letters left exceeds k.
func (mw *MultiWord) Within(text []byte) bool {
	m, k := mw.m, mw.k
	if len(text) == 0 {
		return false
	}
	if m <= k {
		return true
	}
	pv, mv := mw.rows(mw.nw)
	mv = mv[:len(pv)]
	bitvec.Fill(pv, ^uint64(0))
	bitvec.Fill(mv, 0)
	top := uint(m-1) % 64
	score := m
	for i := len(text) - 1; i >= 0; i-- {
		pm := mw.pm.Mask(text[i])[:len(pv)]
		// The carries into word w: the addition's, and the bits that
		// the horizontal deltas shift in.
		var add, phc, mhc, ph, mh uint64
		for w, p := range pv {
			eq, n := ^pm[w], mv[w]
			xv := eq | n
			sum, c := bits.Add64(eq&p, p, add)
			xh := sum ^ p | eq
			ph, mh = n|^(xh|p), p&xh
			phs, mhs := ph<<1|phc, mh<<1|mhc
			add, phc, mhc = c, ph>>63, mh>>63
			pv[w], mv[w] = mhs|^(xv|phs), phs&xv
		}
		// ph and mh are the last word's horizontal deltas; bit top is the
		// last row's.
		score += int(ph>>top&1) - int(mh>>top&1)
		if score <= k {
			return true
		}
		if score-i > k {
			return false
		}
	}
	return false
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
