package genasm

import (
	"time"

	"genasm/internal/mapper"
)

// MapTrace is a set of hooks run at each stage of the read-mapping
// pipeline — the net/http/httptrace analogue for mapping, and the software
// rendition of the paper's per-pipeline-stage breakdown (seeding,
// pre-alignment filtering, alignment; Figure 1). Attach one via
// MapperConfig.Trace; each field's doc says when its hook runs.
// SeedingDone runs once per strand consulted; for a read of at most 256
// letters the forward call times the one lookup pass of both strands.
type MapTrace = mapper.Trace

// AlignTrace is a set of hooks run around every alignment an Engine
// serves (Align, AlignGlobal, EditDistance, AlignBatch, AlignStream).
// Attach one with Engine.SetAlignTrace.
//
// Any hook may be nil. Hooks run synchronously on the aligning goroutine
// and must be concurrency-safe; they must not block — the engine's whole
// workspace pool is live while they run.
type AlignTrace struct {
	// WorkspaceAcquired runs once an alignment has obtained a pooled
	// workspace, with the time it spent waiting for one. Waits near zero
	// mean the pool has headroom; waits approaching request latency mean
	// the engine is saturated and alignments are queueing (the software
	// analogue of all GenASM units in a vault being busy).
	WorkspaceAcquired func(wait time.Duration)
	// Done runs when the alignment finishes, with the input sizes, the
	// time spent aligning (excluding the workspace wait) and the
	// alignment error, if any.
	Done func(textLen, queryLen int, d time.Duration, err error)
}

// SetAlignTrace attaches tr to every subsequent alignment; nil detaches.
// It is safe to call concurrently with alignments (in-flight alignments
// keep the trace they started with), though the usual pattern is to
// attach once right after NewEngine.
func (e *Engine) SetAlignTrace(tr *AlignTrace) { e.trace.Store(tr) }
