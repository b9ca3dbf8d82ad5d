package core

import "genasm/internal/bitvec"

// dcResult is the outcome of running GenASM-DC over one window.
type dcResult struct {
	// dist is the minimum edit distance found, or -1 when no match exists
	// within the computed error levels.
	dist int
	// loc is the text position the traceback starts from (0 when
	// anchored; the best matching location in search mode).
	loc int
	// levels is the highest error level the scan computed: the stored
	// entries cover levels 0..levels (exactly dist with the Scrooge
	// kernel's adaptive scan).
	levels int
}

// dcWindow runs GenASM-DC over one window: it searches subpattern within
// subtext, filling the workspace's stored bitvectors (the TB-SRAM
// contents) for every text position and computed error level.
//
// In anchored mode the result distance is the minimum d whose R[d] has a 0
// MSB after the final iteration (text position 0), i.e. the best alignment
// that starts exactly at the window start. In search mode every text
// position is a candidate and the minimum-distance one wins (ties prefer
// the smallest position, keeping the most text available for traceback).
//
// pad > 0 prepends that many phantom iterations at the scan start (i.e.
// past the text end): sentinel characters whose pattern mask matches
// nothing. The right-to-left Bitap recurrence cannot otherwise represent
// pattern insertions after the last text character (their bitvector chain
// would live at unscanned text positions), so terminal windows pass
// pad = len(subpattern) to make the anchored distance exact.
//
// With Config.Adaptive the scan computes only the levels the window
// needs: the Scrooge kernel scans level-major and stops at the window's
// distance (see dcScanScrooge); the baseline kernel, kept close to the
// paper's Algorithm 1, starts at 8 levels and rescans with doubled k on
// failure.
func (w *Workspace) dcWindow(subtext, subpattern []byte, search bool, pad int) dcResult {
	mp := len(subpattern)
	// A window alignment never needs more error levels than the pattern
	// length: an all-insertion path always reaches the MSB at level mp
	// (R[d] bit d-1 is 0 by induction on the shifted-in zero of the
	// insertion case).
	kMax := min(w.cfg.MaxWindowErrors, mp)

	w.pm.GenerateInto(w.cfg.Alphabet, subpattern)
	// The SENE traceback re-derives match edges from the window text.
	w.scanText, w.scanNT = subtext, len(subtext)
	if w.cfg.Kernel == KernelScrooge {
		return w.dcScanScrooge(mp, kMax, search, pad)
	}

	k := kMax
	if w.cfg.Adaptive {
		k = min(8, kMax)
	}
	for {
		res := w.dcScanBaseline(subtext, mp, k, search, pad)
		if res.dist >= 0 || k >= kMax {
			return res
		}
		k = min(2*k, kMax)
	}
}

// dcScanBaseline stores the intermediate match/insertion/deletion
// bitvectors of Algorithm 1 lines 15-18 for every text position — the
// paper's original TB-SRAM layout. It always recomputes every level from
// scratch, position-major, keeping the reference kernel as close to the
// paper's Algorithm 1 as possible.
func (w *Workspace) dcScanBaseline(subtext []byte, mp, k int, search bool, pad int) dcResult {
	// The window's bitvectors span only as many words as the sub-pattern
	// needs; a multi-word workspace (W > 64) still processes short final
	// windows with single-word rows.
	nw := bitvec.Words(mp)
	if nw == 0 {
		nw = 1
	}
	nt := len(subtext)
	msb := mp - 1

	r, oldR := w.r, w.oldR
	for d := 0; d <= k; d++ {
		bitvec.Fill(r[d][:nw], ^uint64(0))
	}

	bestDist, bestLoc := -1, 0
	for i := nt - 1 + pad; i >= 0; i-- {
		curPM := w.ones[:nw]
		if i < nt {
			curPM = w.pm.Mask(subtext[i])
		}
		r, oldR = oldR, r // previous iteration's rows become oldR

		// R[0] = (oldR[0] << 1) | PM  (exact-match level; also its own
		// "match" bitvector for traceback).
		bitvec.ShiftLeft1Or(r[0][:nw], oldR[0][:nw], curPM)
		copy(w.mRow(i, 0), r[0][:nw])

		for d := 1; d <= k; d++ {
			rd, rd1, old1, old := r[d], r[d-1], oldR[d-1], oldR[d]
			iRow := w.iRow(i, d)
			dRow := w.dRow(i, d)
			mRow := w.mRow(i, d)
			var carryS, carryI, carryM uint64
			for wi := 0; wi < nw; wi++ {
				del := old1[wi]
				ins := rd1[wi]<<1 | carryI
				sub := old1[wi]<<1 | carryS
				match := old[wi]<<1 | carryM | curPM[wi]
				carryI = rd1[wi] >> 63
				carryS = old1[wi] >> 63
				carryM = old[wi] >> 63
				dRow[wi] = del
				iRow[wi] = ins
				mRow[wi] = match
				rd[wi] = del & sub & ins & match
			}
		}

		if search && i < nt {
			for d := 0; d <= k; d++ {
				if bitvec.IsZeroBit(r[d], msb) {
					if bestDist < 0 || d < bestDist || (d == bestDist && i < bestLoc) {
						bestDist, bestLoc = d, i
					}
					break
				}
			}
		}
	}
	w.r, w.oldR = r, oldR

	if !search {
		// Anchored: inspect the final iteration's levels at text pos 0.
		if nt == 0 {
			return dcResult{dist: -1, levels: k}
		}
		for d := 0; d <= k; d++ {
			if bitvec.IsZeroBit(w.r[d], msb) {
				return dcResult{dist: d, loc: 0, levels: k}
			}
		}
		return dcResult{dist: -1, levels: k}
	}
	return dcResult{dist: bestDist, loc: bestLoc, levels: k}
}

// dcScanScrooge is the Scrooge kernel's DC: it stores one R entry per
// (error level, text position) — SENE — and computes them level-major.
// Level 0 is the shift-or chain over the window; level d is computed over
// every position from the stored level d-1 (scroogeLevel). After each
// level the scan checks for a match: at position 0 when anchored, at the
// smallest matching position below the text end in search mode. With
// Config.Adaptive it stops at the first hit, so a window costs exactly
// dist+1 levels, and the traceback reads nothing above them; otherwise it
// computes every level up to kMax, as the hardware does. A window with no
// hit within kMax reports dist -1 (ErrWindowBudget).
func (w *Workspace) dcScanScrooge(mp, kMax int, search bool, pad int) dcResult {
	top := w.scanNT + pad
	res := dcResult{dist: -1, levels: kMax}
	for d := 0; d <= kMax; d++ {
		w.scroogeLevel(d, mp, top)
		if res.dist >= 0 {
			continue
		}
		if loc := w.levelHit(d, mp, search); loc >= 0 {
			res.dist, res.loc = d, loc
			if w.cfg.Adaptive {
				res.levels = d
				break
			}
		}
	}
	return res
}

// levelHit returns the text position the traceback starts from when the
// stored level d matches the whole pattern (a 0 MSB): 0 when anchored, the
// smallest such position below the text end in search mode; -1 when none
// does.
func (w *Workspace) levelHit(d, mp int, search bool) int {
	n := min(w.scanNT, 1)
	if search {
		n = w.scanNT
	}
	msb := mp - 1
	if w.nw == 1 {
		for i, r := range w.rStore[d*w.npos:][:n] {
			if r>>uint(msb)&1 == 0 {
				return i
			}
		}
		return -1
	}
	for i := range n {
		if bitvec.IsZeroBit(w.rEntry(i, d), msb) {
			return i
		}
	}
	return -1
}

// scroogeLevel computes the Scrooge entry store's level d for every text
// position of the current window, right to left from the all-ones
// virtual position top (Algorithm 1 lines 7-22, one level at a time).
// Level 0 is R[0] = (R[0] << 1) | PM; level d > 0 reads only the stored
// level d-1, so any level can be added after the scan — which is how
// tbBest deepens a terminal window.
func (w *Workspace) scroogeLevel(d, mp, top int) {
	nt := w.scanNT
	if w.nw == 1 {
		// Single-word rows (W <= 64, the default config): one store per
		// entry, the whole chain in registers.
		row := w.rStore[d*w.npos:][:top+1]
		row[top] = ^uint64(0)
		pm := w.scanPM[:top]
		r := ^uint64(0) // R[d] at the previous position
		if d == 0 {
			// Level 0 also caches each position's pattern-mask word for
			// the traceback's match queries (all ones on phantom padding).
			for i := top - 1; i >= nt; i-- {
				pm[i] = ^uint64(0)
				r = r<<1 | pm[i]
				row[i] = r
			}
			for i := nt - 1; i >= 0; i-- {
				pm[i] = w.pm.MaskWord(w.scanText[i])
				r = r<<1 | pm[i]
				row[i] = r
			}
			return
		}
		// old1 is R[d-1] at the previous position (the deletion term)
		// and old1s its shift (the substitution term), which was that
		// position's insertion term: each word of level d-1 is loaded and
		// shifted once.
		below := w.rStore[(d-1)*w.npos:][:top+1]
		old1 := below[top]
		old1s := old1 << 1
		// Two positions per step: the serial r chain stays, the loop
		// overhead halves.
		i := top - 1
		for ; i >= 1; i -= 2 {
			rp := below[i]
			rs := rp << 1
			r = old1 & old1s & rs & (r<<1 | pm[i])
			row[i] = r
			old1 = below[i-1]
			old1s = old1 << 1
			r = rp & rs & old1s & (r<<1 | pm[i-1])
			row[i-1] = r
		}
		if i == 0 {
			row[0] = old1 & old1s & (below[0] << 1) & (r<<1 | pm[0])
		}
		return
	}

	// Multi-word rows: the window's bitvectors span only as many words
	// as the sub-pattern needs, in slots spaced by the workspace's word
	// count so rEntry's indexing holds for every window length.
	nw := max(bitvec.Words(mp), 1)
	entry := func(level, i int) []uint64 {
		o := (level*w.npos + i) * w.nw
		return w.rStore[o : o+nw]
	}
	bitvec.Fill(entry(d, top), ^uint64(0))
	for i := top - 1; i >= 0; i-- {
		curPM := w.ones[:nw]
		if i < nt {
			curPM = w.pm.Mask(w.scanText[i])
		}
		if d == 0 {
			bitvec.ShiftLeft1Or(entry(0, i), entry(0, i+1), curPM)
			continue
		}
		rd, rd1, old1, old := entry(d, i), entry(d-1, i), entry(d-1, i+1), entry(d, i+1)
		var carryS, carryI, carryM uint64
		for wi := range nw {
			del := old1[wi]
			ins := rd1[wi]<<1 | carryI
			sub := old1[wi]<<1 | carryS
			match := old[wi]<<1 | carryM | curPM[wi]
			carryI = rd1[wi] >> 63
			carryS = old1[wi] >> 63
			carryM = old[wi] >> 63
			rd[wi] = del & sub & ins & match
		}
	}
}
