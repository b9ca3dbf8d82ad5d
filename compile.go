package genasm

import (
	"context"
	"sync"

	"genasm/internal/bitap"
)

// CompiledPattern is a pattern pre-processed for repeated approximate
// matching: the Bitap pattern bitmasks (Algorithm 1, line 4) are built once
// at Compile time and, with pooled scratch rows, reused across every
// Search/Filter call, instead of being rebuilt per invocation — the
// hot-path win for scanning many texts or reads against one pattern.
//
// A CompiledPattern is safe for concurrent use: the immutable bitmasks are
// shared, while each in-flight call checks a private scratch clone out of
// an internal pool.
type CompiledPattern struct {
	e        *Engine
	pattern  []byte
	maxEdits int

	searchers sync.Pool // *bitap.MultiWord clones sharing the masks
}

// Compile pre-processes pattern for repeated matching with at most maxEdits
// edits under the engine's alphabet.
func (e *Engine) Compile(pattern []byte, maxEdits int) (*CompiledPattern, error) {
	encPattern, err := e.encode("pattern", pattern)
	if err != nil {
		return nil, err
	}
	proto, err := bitap.NewMultiWord(e.a, encPattern, maxEdits)
	if err != nil {
		return nil, err
	}
	cp := &CompiledPattern{
		e:        e,
		pattern:  append([]byte(nil), pattern...),
		maxEdits: maxEdits,
	}
	// The prototype never leaves this closure and is never scanned: every
	// pooled searcher is a clone that only reads its masks, so a pool miss
	// may clone it while other clones scan.
	cp.searchers.New = func() any { return proto.Clone() }
	return cp, nil
}

// Pattern returns a copy of the compiled pattern (letters).
func (cp *CompiledPattern) Pattern() []byte { return append([]byte(nil), cp.pattern...) }

// MaxEdits returns the edit distance threshold the pattern was compiled for.
func (cp *CompiledPattern) MaxEdits() int { return cp.maxEdits }

// Search finds all positions where the compiled pattern occurs in text with
// at most MaxEdits edits, in ascending position order.
func (cp *CompiledPattern) Search(ctx context.Context, text []byte) ([]Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	encText, err := cp.e.encode("text", text)
	if err != nil {
		return nil, err
	}
	mw := cp.searchers.Get().(*bitap.MultiWord)
	defer cp.searchers.Put(mw)
	return ascendingMatches(mw.Search(encText)), nil
}

// Filter reports whether the compiled pattern (as a read) may be within
// MaxEdits edits of some position in region — Engine.Filter with the
// pattern-side pre-processing amortized.
func (cp *CompiledPattern) Filter(ctx context.Context, region []byte) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	encRegion, err := cp.e.encode("region", region)
	if err != nil {
		return false, err
	}
	mw := cp.searchers.Get().(*bitap.MultiWord)
	defer cp.searchers.Put(mw)
	return mw.Within(encRegion), nil
}
