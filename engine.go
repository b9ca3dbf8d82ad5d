package genasm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"genasm/internal/alphabet"
	"genasm/internal/bitap"
	"genasm/internal/core"
	"genasm/internal/pool"
)

// AlphabetError reports an input that cannot be encoded in an engine's
// alphabet — the typed form of every "invalid character" failure the public
// API can produce, so callers can distinguish bad sequences from other
// errors with errors.As.
type AlphabetError struct {
	// Alphabet is the alphabet the input was checked against.
	Alphabet Alphabet
	// Input names the offending argument ("text", "query", "pattern", ...).
	Input string
	// Err is the underlying encode error, naming the character and position.
	Err error
}

// Error implements error.
func (e *AlphabetError) Error() string {
	return fmt.Sprintf("genasm: %s: %v", e.Input, e.Err)
}

// Unwrap exposes the underlying encode error.
func (e *AlphabetError) Unwrap() error { return e.Err }

// Engine is the single front door to every GenASM use case: read alignment
// (Align, AlignGlobal), edit distance (EditDistance), approximate text
// search (Search, Compile), pre-alignment filtering (Filter), batch
// alignment (AlignBatch) and read mapping (Map, NewMapper).
//
// An Engine is safe for concurrent use by any number of goroutines: all
// alignment work draws reusable workspaces from a sharded, capacity-bounded
// pool — the software analogue of the accelerator's fixed count of per-vault
// GenASM units (Section 7). Every method takes a context and returns
// ctx.Err() promptly when the context ends while the pool is saturated.
//
// Build one with NewEngine and share it; the zero value is not usable.
type Engine struct {
	cfg  Config
	a    *alphabet.Alphabet
	pool *pool.Pool

	// scratch pools multi-word Bitap searchers for Search and Filter, so
	// those hot paths reuse mask and row storage across calls instead of
	// reallocating per invocation.
	scratch sync.Pool

	// trace holds the optional AlignTrace hooks. Config must stay
	// comparable (it is used as a map key by callers and tests), so the
	// hooks live here behind an atomic pointer instead of in Config.
	trace atomic.Pointer[AlignTrace]
}

// Config returns the engine's alignment configuration.
func (e *Engine) Config() Config { return e.cfg }

// Alphabet returns the engine's alphabet.
func (e *Engine) Alphabet() Alphabet { return e.cfg.Alphabet }

// Capacity is the maximum number of concurrently running alignments.
func (e *Engine) Capacity() int { return e.pool.Config().MaxWorkspaces }

// PoolStats snapshots workspace pool activity: free-list hits, misses
// (workspace creations), workspaces currently in flight and idle, and the
// capacity.
type PoolStats = pool.Stats

// PanicError reports a panic recovered at the engine's isolation boundary
// around a pooled alignment or mapping. The process survives: the
// panicking workspace was quarantined (never returned to the pool, so its
// possibly-corrupted scratch state cannot poison later requests) and its
// capacity slot is refilled by a fresh workspace on demand. Callers can
// detect quarantines with errors.As and should treat them as internal
// errors (HTTP 500), not input errors.
type PanicError = core.PanicError

// Stats snapshots the underlying workspace pool counters.
func (e *Engine) Stats() PoolStats { return e.pool.Stats() }

// encode lifts letters into dense codes, wrapping failures in the typed
// AlphabetError.
func (e *Engine) encode(input string, s []byte) ([]byte, error) {
	enc, err := e.a.Encode(s)
	if err != nil {
		return nil, &AlphabetError{Alphabet: e.cfg.Alphabet, Input: input, Err: err}
	}
	return enc, nil
}

// Align aligns query against text semi-globally: the query is consumed in
// full, the text may end early (and may start late with Config.SearchStart).
// This is the read alignment use case: text is the candidate reference
// region, query is the read.
func (e *Engine) Align(ctx context.Context, text, query []byte) (Alignment, error) {
	return e.run(ctx, text, query, false)
}

// AlignGlobal aligns query against text end to end; Distance is then the
// (upper-bound, almost always exact — see package tests) edit distance
// between the two sequences.
func (e *Engine) AlignGlobal(ctx context.Context, text, query []byte) (Alignment, error) {
	return e.run(ctx, text, query, true)
}

// EditDistance returns the edit distance between two sequences of arbitrary
// length (the Section 10.4 use case). When either sequence is empty the
// distance is the other one's length.
func (e *Engine) EditDistance(ctx context.Context, a, b []byte) (int, error) {
	encA, encB, err := e.encodePair(a, b)
	if err != nil {
		return 0, err
	}
	if len(encA) == 0 || len(encB) == 0 {
		return len(encA) + len(encB), nil
	}
	aln, err := e.runEncoded(ctx, encA, encB, true)
	if err != nil {
		return 0, err
	}
	return aln.Distance, nil
}

func (e *Engine) run(ctx context.Context, text, query []byte, global bool) (Alignment, error) {
	encText, encQuery, err := e.encodePair(text, query)
	if err != nil {
		return Alignment{}, err
	}
	return e.runEncoded(ctx, encText, encQuery, global)
}

// encodePair encodes an alignment's text and query.
func (e *Engine) encodePair(text, query []byte) (encText, encQuery []byte, err error) {
	if encText, err = e.encode("text", text); err != nil {
		return nil, nil, err
	}
	if encQuery, err = e.encode("query", query); err != nil {
		return nil, nil, err
	}
	return encText, encQuery, nil
}

// runEncoded aligns already-encoded sequences through the workspace pool —
// the one alignment dispatch shared by Align/AlignGlobal and AlignBatch,
// and therefore the one place AlignTrace hooks fire.
func (e *Engine) runEncoded(ctx context.Context, encText, encQuery []byte, global bool) (Alignment, error) {
	tr := e.trace.Load()
	var start time.Time
	if tr != nil && (tr.WorkspaceAcquired != nil || tr.Done != nil) {
		start = time.Now()
	}
	var out Alignment
	err := e.pool.Do(ctx, func(ws *core.Workspace) error {
		if tr != nil {
			if tr.WorkspaceAcquired != nil {
				tr.WorkspaceAcquired(time.Since(start))
			}
			if tr.Done != nil {
				// Restart the clock so Done sees pure alignment time.
				start = time.Now()
			}
		}
		var aln core.Alignment
		var alignErr error
		if global {
			aln, alignErr = ws.AlignGlobal(encText, encQuery)
		} else {
			aln, alignErr = ws.Align(encText, encQuery)
		}
		if alignErr != nil {
			return alignErr
		}
		out = alignmentFromCore(aln)
		return nil
	})
	if tr != nil && tr.Done != nil {
		tr.Done(len(encText), len(encQuery), time.Since(start), err)
	}
	return out, err
}

// searcher checks a reusable multi-word searcher out of the engine's
// scratch pool, re-targeted at (pattern, k). Return it with putSearcher.
func (e *Engine) searcher(encPattern []byte, k int) (*bitap.MultiWord, error) {
	if mw, ok := e.scratch.Get().(*bitap.MultiWord); ok {
		if err := mw.Reset(encPattern, k); err != nil {
			return nil, err
		}
		return mw, nil
	}
	return bitap.NewMultiWord(e.a, encPattern, k)
}

func (e *Engine) putSearcher(mw *bitap.MultiWord) { e.scratch.Put(mw) }

var defaultEngine = sync.OnceValues(func() (*Engine, error) { return NewEngine() })

// DefaultEngine returns the lazily-built package-level Engine with the
// default configuration (DNA, W=64, O=24, sized to the machine), for
// callers that do not need an engine of their own.
func DefaultEngine() (*Engine, error) { return defaultEngine() }
