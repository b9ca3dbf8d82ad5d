package genasm

import (
	"context"

	"genasm/internal/bitap"
)

// Match is an approximate occurrence of a pattern in a text.
type Match struct {
	// Pos is the text position where the occurrence starts.
	Pos int
	// Distance is the occurrence's edit distance.
	Distance int
}

// ascendingMatches lifts the scan's decreasing-position matches into the
// public Match type in ascending text order — the one conversion path
// shared by Engine.Search and CompiledPattern.Search.
func ascendingMatches(raw []bitap.Match) []Match {
	out := make([]Match, len(raw))
	for i, m := range raw {
		out[len(raw)-1-i] = Match{Pos: m.Loc, Distance: m.Dist}
	}
	return out
}

// Search finds all positions where pattern occurs in text with at most
// maxEdits edits, in ascending position order, using the multi-word
// GenASM-DC scan (pattern length is unrestricted). With the Bytes alphabet
// this is the paper's generic text search (Section 11).
//
// Search regenerates the pattern bitmasks on every call (row scratch is
// reused from an engine-owned pool); when the same pattern scans many
// texts, Compile once and use CompiledPattern.Search to amortize the whole
// pre-processing step.
func (e *Engine) Search(ctx context.Context, text, pattern []byte, maxEdits int) ([]Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	encText, err := e.encode("text", text)
	if err != nil {
		return nil, err
	}
	encPattern, err := e.encode("pattern", pattern)
	if err != nil {
		return nil, err
	}
	mw, err := e.searcher(encPattern, maxEdits)
	if err != nil {
		return nil, err
	}
	defer e.putSearcher(mw)
	return ascendingMatches(mw.Search(encText)), nil
}

// Filter is the pre-alignment filtering use case (Section 10.3): it reports
// whether read may be within maxEdits edits of some position in region.
// GenASM-DC decides the semi-global distance against maxEdits without
// computing it: the scan stops at the first hit, or as soon as no hit can
// be reached in the rest of the region. The decision equals "semi-global
// distance <= maxEdits" exactly, so a false return safely eliminates the
// pair from further alignment (the filter never false-rejects). A true
// return does not promise an end-to-end alignment of the region within
// maxEdits: the free start hides leading deletions (the paper's footnote
// 4, measured at 0.02% false accepts).
//
// The pair is encoded with the engine's alphabet; inputs outside it are
// reported as an *AlphabetError. Scratch memory is drawn from an
// engine-owned pool, so the hot filtering path does not reallocate per pair.
func (e *Engine) Filter(ctx context.Context, region, read []byte, maxEdits int) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	encRegion, err := e.encode("region", region)
	if err != nil {
		return false, err
	}
	encRead, err := e.encode("read", read)
	if err != nil {
		return false, err
	}
	mw, err := e.searcher(encRead, maxEdits)
	if err != nil {
		return false, err
	}
	defer e.putSearcher(mw)
	return mw.Within(encRegion), nil
}
