// Package dp implements the dynamic-programming alignment baselines the
// paper compares against: Needleman-Wunsch/Gotoh affine-gap alignment with
// traceback (the algorithmic core of BWA-MEM's and Minimap2's alignment
// steps), optionally banded (as production aligners run it), in global,
// fit (read-to-region) and local (Smith-Waterman) modes, plus a
// linear-space Hirschberg aligner for long sequences.
//
// These are the "expensive dynamic programming based algorithms" of
// Section 2.2, with quadratic time and (unbanded) quadratic space, serving
// as both correctness oracles for GenASM and software-baseline stand-ins in
// the benchmark harness.
package dp

import (
	"genasm/internal/cigar"
)

// Mode selects the alignment boundary conditions.
type Mode int

const (
	// Global aligns both sequences end to end (Needleman-Wunsch).
	Global Mode = iota
	// Fit aligns the whole pattern to a substring of the text (free text
	// start and end) — the read-to-candidate-region alignment of read
	// mapping.
	Fit
	// Local finds the best-scoring pair of substrings (Smith-Waterman).
	Local
	// Extend anchors the alignment start at (0,0) and ends it at the
	// highest-scoring cell anywhere in the matrix — the tile alignment
	// step of Darwin's GACT (Section 10.2's hardware baseline).
	Extend
)

// Result is a DP alignment.
type Result struct {
	// Score under the requested scoring scheme.
	Score int
	// Cigar of the aligned region (for Local, of the matched substrings).
	Cigar cigar.Cigar
	// TextStart and TextEnd delimit the consumed text.
	TextStart, TextEnd int
	// PatternStart and PatternEnd delimit the consumed pattern (always
	// the whole pattern except in Local mode).
	PatternStart, PatternEnd int
}

// Distance returns the number of edit operations in the result's CIGAR.
func (r Result) Distance() int { return r.Cigar.EditDistance() }

const negInf = int(-1) << 40

// state identifiers for the traceback encoding.
const (
	stM = 0 // diagonal (match/substitution)
	stI = 1 // gap consuming pattern (insertion)
	stD = 2 // gap consuming text (deletion)
	// stStart marks a Local-mode fresh start.
	stStart = 3
)

// grid maps banded (row, col) coordinates onto flat traceback storage.
type grid struct {
	n, m                int
	bandLeft, bandRight int
	width               int
}

func newGrid(n, m, band int) grid {
	g := grid{n: n, m: m}
	if band <= 0 {
		// Unbanded: the band covers the whole matrix.
		g.bandLeft, g.bandRight = m, n
	} else {
		g.bandLeft = band
		g.bandRight = band + max(0, n-m)
	}
	g.width = g.bandLeft + g.bandRight + 1
	return g
}

func (g grid) lo(i int) int { return max(0, i-g.bandLeft) }
func (g grid) hi(i int) int { return min(g.n, i+g.bandRight) }
func (g grid) idx(i, j int) int {
	return i*g.width + (j - (i - g.bandLeft))
}

// Align aligns pattern (query) against text under the affine-gap scoring
// scheme. band <= 0 disables banding; a positive band restricts |i - j|
// (pattern vs text index skew) to roughly the band, as production aligners
// do for speed. A too-narrow band yields the best in-band alignment, which
// may be suboptimal — callers choose bands from their error models.
func Align(text, pattern []byte, sc cigar.Scoring, mode Mode, band int) Result {
	n, m := len(text), len(pattern)
	if m == 0 {
		var b cigar.Builder
		if mode == Global {
			b.Append(cigar.OpDel, n)
		}
		c := b.Cigar()
		return Result{Score: sc.Score(c), Cigar: c, TextEnd: c.TextLen()}
	}
	if n == 0 {
		var b cigar.Builder
		if mode == Global || mode == Fit {
			b.Append(cigar.OpIns, m)
		}
		c := b.Cigar()
		return Result{Score: sc.Score(c), Cigar: c, PatternEnd: c.QueryLen()}
	}

	g := newGrid(n, m, band)
	gapOpenExt := sc.GapOpen + sc.GapExtend

	// Score rows: prev/cur per state, full text width for simplicity
	// (banding limits work, not row storage).
	width := n + 1
	prevM := make([]int, width)
	prevI := make([]int, width)
	prevD := make([]int, width)
	curM := make([]int, width)
	curI := make([]int, width)
	curD := make([]int, width)

	// Traceback storage in band coordinates: 2 bits per state.
	tb := make([]byte, (m+1)*g.width)

	// Row 0.
	for j := 0; j <= min(n, g.hi(0)); j++ {
		prevI[j] = negInf
		switch mode {
		case Global, Extend:
			prevM[j] = negInf
			if j == 0 {
				prevM[0] = 0
				prevD[0] = negInf
			} else if j == 1 {
				prevD[j] = gapOpenExt
				tb[g.idx(0, j)] = stM << 4
			} else {
				prevD[j] = prevD[j-1] + sc.GapExtend
				tb[g.idx(0, j)] = stD << 4
			}
		case Fit, Local:
			prevM[j] = 0 // free start anywhere in the text
			prevD[j] = negInf
		}
	}

	bestScore, bestI, bestJ, bestState := negInf, 0, 0, stM
	if mode == Extend {
		bestScore = 0 // the empty extension at (0,0) is always available
	}

	for i := 1; i <= m; i++ {
		lo, hi := g.lo(i), g.hi(i)
		// Out-of-band guards for reads at lo-1 and hi+1.
		if lo > 0 {
			curM[lo-1], curI[lo-1], curD[lo-1] = negInf, negInf, negInf
		}
		if ph := g.hi(i - 1); ph+1 <= n {
			prevM[ph+1], prevI[ph+1], prevD[ph+1] = negInf, negInf, negInf
		}
		if pl := g.lo(i - 1); pl > 0 {
			prevM[pl-1], prevI[pl-1], prevD[pl-1] = negInf, negInf, negInf
		}

		for j := lo; j <= hi; j++ {
			var cell byte

			// I: consume pattern[i-1] (vertical).
			iM := prevM[j] + gapOpenExt
			iI := prevI[j] + sc.GapExtend
			iD := prevD[j] + gapOpenExt
			vI, srcI := iM, stM
			if iI > vI {
				vI, srcI = iI, stI
			}
			if iD > vI {
				vI, srcI = iD, stD
			}
			curI[j] = vI
			cell |= byte(srcI) << 2

			// M: consume both (diagonal); only valid for j >= lo+? j-1 >= 0.
			vM := negInf
			srcM := stM
			if j > 0 {
				sub := sc.Mismatch
				if pattern[i-1] == text[j-1] {
					sub = sc.Match
				}
				mm := prevM[j-1]
				mi := prevI[j-1]
				md := prevD[j-1]
				vM, srcM = mm, stM
				if mi > vM {
					vM, srcM = mi, stI
				}
				if md > vM {
					vM, srcM = md, stD
				}
				if mode == Local && 0 > vM {
					vM, srcM = 0, stStart
				}
				vM += sub
			}
			curM[j] = vM
			cell |= byte(srcM)

			// D: consume text[j-1] (horizontal); reads the current row.
			vD := negInf
			srcD := stM
			if j > 0 {
				dM := curM[j-1] + gapOpenExt
				dI := curI[j-1] + gapOpenExt
				dD := curD[j-1] + sc.GapExtend
				vD, srcD = dM, stM
				if dD > vD {
					vD, srcD = dD, stD
				}
				if dI > vD {
					vD, srcD = dI, stI
				}
			}
			curD[j] = vD
			cell |= byte(srcD) << 4

			tb[g.idx(i, j)] = cell

			switch mode {
			case Local:
				if vM > bestScore {
					bestScore, bestI, bestJ, bestState = vM, i, j, stM
				}
			case Extend:
				if vM > bestScore {
					bestScore, bestI, bestJ, bestState = vM, i, j, stM
				}
				if vI > bestScore {
					bestScore, bestI, bestJ, bestState = vI, i, j, stI
				}
				if vD > bestScore {
					bestScore, bestI, bestJ, bestState = vD, i, j, stD
				}
			}
		}
		prevM, curM = curM, prevM
		prevI, curI = curI, prevI
		prevD, curD = curD, prevD
	}

	// Pick the end cell.
	switch mode {
	case Global:
		bestI, bestJ = m, n
		bestScore, bestState = prevM[n], stM
		if prevI[n] > bestScore {
			bestScore, bestState = prevI[n], stI
		}
		if prevD[n] > bestScore {
			bestScore, bestState = prevD[n], stD
		}
	case Fit:
		bestI = m
		bestScore = negInf
		for j := g.lo(m); j <= g.hi(m); j++ {
			if prevM[j] > bestScore {
				bestScore, bestJ, bestState = prevM[j], j, stM
			}
			if prevI[j] > bestScore {
				bestScore, bestJ, bestState = prevI[j], j, stI
			}
		}
	case Local:
		if bestScore < 0 {
			// Empty local alignment.
			return Result{}
		}
	}

	// Traceback.
	var rev cigar.Cigar
	appendOp := func(op cigar.Op, n int) {
		if k := len(rev); k > 0 && rev[k-1].Op == op {
			rev[k-1].Len += n
			return
		}
		rev = append(rev, cigar.Run{Len: n, Op: op})
	}
	i, j, st := bestI, bestJ, bestState
	for {
		if mode == Local && st == stStart {
			break
		}
		if i == 0 && (mode == Fit || mode == Local) {
			break
		}
		if i == 0 && j == 0 {
			break
		}
		cell := tb[g.idx(i, j)]
		switch st {
		case stM:
			if pattern[i-1] == text[j-1] {
				appendOp(cigar.OpMatch, 1)
			} else {
				appendOp(cigar.OpSubst, 1)
			}
			st = int(cell & 3)
			i--
			j--
		case stI:
			appendOp(cigar.OpIns, 1)
			st = int(cell >> 2 & 3)
			i--
		case stD:
			appendOp(cigar.OpDel, 1)
			st = int(cell >> 4 & 3)
			j--
		}
	}

	c := cigar.Cigar(rev).Reverse()
	return Result{
		Score:        bestScore,
		Cigar:        c,
		TextStart:    j,
		TextEnd:      bestJ,
		PatternStart: i,
		PatternEnd:   bestI,
	}
}

// EditDistance is the two-row Levenshtein distance (no traceback); the
// repository's smallest correctness oracle.
func EditDistance(a, b []byte) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ai := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j-1]+cost, min(prev[j]+1, cur[j-1]+1))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
