package core

import (
	"fmt"

	"genasm/internal/cigar"
	"genasm/internal/faults"
)

// Align aligns the encoded pattern (query/read) against the encoded text
// (reference region) with the full GenASM pipeline: the text and pattern
// are divided into overlapping windows; GenASM-DC generates each window's
// bitvectors and distance; GenASM-TB produces each window's partial
// traceback; the partial outputs are merged into the complete CIGAR
// (Figure 4, steps 3-7).
//
// The alignment is semi-global: the pattern is consumed in full, the text
// may end early (TextEnd marks the consumed extent). With
// Config.FindFirstWindowStart the alignment may also skip leading text
// (TextStart). Use AlignGlobal for end-to-end edit distance.
//
// The result's Cigar views the workspace's reusable arena and is
// invalidated by the next call on this workspace; Clone the alignment to
// retain it (see Alignment.Cigar).
func (w *Workspace) Align(text, pattern []byte) (Alignment, error) {
	return w.align(text, pattern, false, -1)
}

// AlignWithin is Align with a distance bound: it returns exactly what Align
// returns when that alignment's Distance is at most maxDist, and
// ErrDistanceBound otherwise. The bound is checked after every window:
// once the edits committed by finished windows exceed maxDist the call
// stops, since later windows only append to the CIGAR. This is the
// branch-and-bound of read mapping — a candidate that cannot beat the
// mapper's acceptance bound costs a few windows instead of a full
// alignment. A negative maxDist means no bound.
func (w *Workspace) AlignWithin(text, pattern []byte, maxDist int) (Alignment, error) {
	return w.align(text, pattern, false, maxDist)
}

// validateCodes checks that every byte is a dense code of the configured
// alphabet (the DC kernel indexes pattern-bitmask tables by code).
func (w *Workspace) validateCodes(s []byte) error {
	size := byte(w.cfg.Alphabet.Size() - 1)
	for i, c := range s {
		if c > size {
			return fmt.Errorf("code %d at position %d outside %s alphabet (size %d); encode inputs with alphabet.Encode", c, i, w.cfg.Alphabet.Name(), w.cfg.Alphabet.Size())
		}
	}
	return nil
}

// AlignGlobal aligns pattern against text end-to-end: unconsumed trailing
// text is emitted as deletions so that the CIGAR transforms the whole
// pattern into the whole text and Distance is a (tight, see package tests)
// upper bound on the Levenshtein distance.
func (w *Workspace) AlignGlobal(text, pattern []byte) (Alignment, error) {
	return w.align(text, pattern, true, -1)
}

// EditDistance returns the edit distance computed by a global alignment.
// The paper's edit distance use case (Section 10.4) runs exactly this
// DC+TB window interplay, with the CIGAR assembly elided in hardware.
func (w *Workspace) EditDistance(a, b []byte) (int, error) {
	aln, err := w.AlignGlobal(a, b)
	if err != nil {
		return 0, err
	}
	return aln.Distance, nil
}

// align is the one alignment loop behind Align, AlignWithin and
// AlignGlobal; maxDist < 0 disables the distance bound.
func (w *Workspace) align(text, pattern []byte, global bool, maxDist int) (Alignment, error) {
	// Drop the window-text reference when done so a pooled idle workspace
	// does not pin the caller's (encoded) text until its next alignment.
	defer func() { w.scanText = nil }()
	if err := faults.Fire(faults.SiteAlignKernel); err != nil {
		return Alignment{}, err
	}
	if len(pattern) == 0 {
		return Alignment{}, fmt.Errorf("core: empty pattern")
	}
	if err := w.validateCodes(text); err != nil {
		return Alignment{}, fmt.Errorf("core: text: %w", err)
	}
	if err := w.validateCodes(pattern); err != nil {
		return Alignment{}, fmt.Errorf("core: pattern: %w", err)
	}
	W := w.cfg.WindowSize

	w.builder.Reset()
	b := &w.builder

	curPattern, curText := 0, 0
	textStart := 0
	windows := 0
	firstWindow := true
	// committed counts the edits of finished non-terminal windows. Those
	// windows run without phantom padding, so every error their traceback
	// uses is an op in the builder, and later windows only append.
	committed := 0

	for curPattern < len(pattern) && curText < len(text) {
		if err := w.checkCtx(); err != nil {
			return Alignment{}, err
		}
		mp := min(W, len(pattern)-curPattern)
		nt := min(W, len(text)-curText)
		final := mp == len(pattern)-curPattern

		search := firstWindow && w.cfg.FindFirstWindowStart
		terminal := final && len(text)-curText <= W
		// Terminal windows get phantom end-padding so trailing pattern
		// insertions at the text end are representable (see dcWindow).
		pad := 0
		if terminal {
			pad = mp
		}
		res := w.dcWindow(text[curText:curText+nt], pattern[curPattern:curPattern+mp], search, pad)
		if res.dist < 0 {
			return Alignment{}, fmt.Errorf("%w: window at pattern %d, text %d", ErrWindowBudget, curPattern, curText)
		}
		if search {
			textStart = curText + res.loc
		}
		var tb tbResult
		if terminal {
			// The whole remainder of both sequences fits: pick the
			// cheapest complete traceback (see tbBest).
			tb = w.tbBest(text[curText:curText+nt], pattern[curPattern:curPattern+mp], pad, res.loc, res.dist, res.levels, global, b)
		} else {
			tb = w.tbSelect(mp, nt, pad, res.loc, res.dist, final, b)
		}
		windows++
		if tb.patternConsumed == 0 && tb.textConsumed == 0 && res.loc == 0 {
			// No progress is impossible when DC reported a valid distance;
			// guard against config pathologies rather than looping forever.
			return Alignment{}, fmt.Errorf("core: traceback made no progress at pattern %d, text %d", curPattern, curText)
		}
		curPattern += tb.patternConsumed
		curText += res.loc + tb.textConsumed
		firstWindow = false
		if !terminal {
			committed += tb.errorsUsed
			if maxDist >= 0 && committed > maxDist {
				return Alignment{}, ErrDistanceBound
			}
		}
	}

	// Cleanup: pattern remaining after the text ran out aligns as trailing
	// insertions; in global mode, unconsumed trailing text aligns as
	// trailing deletions.
	if curPattern < len(pattern) {
		b.Append(cigar.OpIns, len(pattern)-curPattern)
	}
	if global && curText < len(text) {
		b.Append(cigar.OpDel, len(text)-curText)
		curText = len(text)
	}

	// The returned Cigar views the workspace's builder arena (zero-copy,
	// zero-alloc); see Alignment.Cigar for the retention contract.
	cg := b.Cigar()
	dist := cg.EditDistance()
	if maxDist >= 0 && dist > maxDist {
		return Alignment{}, ErrDistanceBound
	}
	return Alignment{
		Cigar:     cg,
		Distance:  dist,
		TextStart: textStart,
		TextEnd:   curText,
		Windows:   windows,
	}, nil
}
