package genasm

import (
	"fmt"

	"genasm/internal/pool"
)

// engineSettings collects everything NewEngine can configure: the alignment
// Config plus the sizing of the workspace pool behind the engine.
type engineSettings struct {
	Config
	// Shards is the number of independent free lists inside the pool; zero
	// picks a default scaled to GOMAXPROCS.
	Shards int
	// MaxWorkspaces caps the number of live workspaces (the software
	// analogue of the accelerator's vault count). Alignments block once the
	// cap is reached and every workspace is busy; contexts ending while
	// blocked return ctx.Err(). Zero defaults to 2×GOMAXPROCS.
	MaxWorkspaces int
	// trace is attached to the engine after construction (Config itself
	// must stay comparable, so hooks cannot live there).
	trace *AlignTrace
}

// Option configures an Engine under construction.
type Option func(*engineSettings)

// WithConfig replaces the engine's whole alignment Config at once — the
// bridge for callers migrating from the Config-struct APIs. Later options
// still apply on top.
func WithConfig(cfg Config) Option {
	return func(s *engineSettings) { s.Config = cfg }
}

// WithAlphabet selects the character set of the inputs (default DNA).
func WithAlphabet(a Alphabet) Option {
	return func(s *engineSettings) { s.Alphabet = a }
}

// WithWindow sets the divide-and-conquer window size (W) and overlap (O);
// zero values select the paper's W=64, O=24.
func WithWindow(size, overlap int) Option {
	return func(s *engineSettings) { s.WindowSize, s.Overlap = size, overlap }
}

// WithSearchStart lets alignments begin at the best matching position
// within the first window instead of exactly at the text start — the right
// setting when the text is a candidate region whose start is approximate.
func WithSearchStart(on bool) Option {
	return func(s *engineSettings) { s.SearchStart = on }
}

// WithGapsBeforeSubstitutions inverts the traceback preference order for
// scoring schemes where gaps are cheaper than substitutions (Section 6).
func WithGapsBeforeSubstitutions(on bool) Option {
	return func(s *engineSettings) { s.GapsBeforeSubstitutions = on }
}

// WithMaxWorkspaces caps the number of live workspaces — the engine's
// concurrency bound. Zero (the default) picks 2×GOMAXPROCS.
func WithMaxWorkspaces(n int) Option {
	return func(s *engineSettings) { s.MaxWorkspaces = n }
}

// WithShards sets the number of independent free lists inside the workspace
// pool. More shards reduce lock contention under concurrent traffic. Zero
// (the default) scales with GOMAXPROCS.
func WithShards(n int) Option {
	return func(s *engineSettings) { s.Shards = n }
}

// WithAlignTrace attaches hooks run around every alignment the engine
// serves — workspace-pool wait and per-alignment timing. Equivalent to
// calling Engine.SetAlignTrace right after NewEngine.
func WithAlignTrace(tr *AlignTrace) Option {
	return func(s *engineSettings) { s.trace = tr }
}

// NewEngine builds a concurrency-safe Engine. With no options it is the
// paper's default setup — DNA alphabet, W=64, O=24 — sized to the machine.
func NewEngine(opts ...Option) (*Engine, error) {
	var s engineSettings
	for _, opt := range opts {
		opt(&s)
	}
	if s.Alphabet.impl() == nil {
		return nil, fmt.Errorf("genasm: unknown alphabet %v", s.Alphabet)
	}
	coreCfg := s.coreConfig()
	p, err := pool.New(pool.Config{
		Core:          coreCfg,
		Shards:        s.Shards,
		MaxWorkspaces: s.MaxWorkspaces,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: s.Config, a: coreCfg.Alphabet, pool: p}
	if s.trace != nil {
		e.SetAlignTrace(s.trace)
	}
	return e, nil
}
