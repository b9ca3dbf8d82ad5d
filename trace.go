package genasm

import "time"

// MapTrace is a set of hooks run at each stage of the read-mapping
// pipeline — the net/http/httptrace analogue for mapping, and the software
// rendition of the paper's per-pipeline-stage breakdown (seeding,
// pre-alignment filtering, alignment; Figure 1). Attach one via
// MapperConfig.Trace.
//
// Any hook may be nil. Hooks run synchronously on the mapping goroutine
// and must not block; a shared Mapper calls them concurrently from many
// goroutines, so implementations must be concurrency-safe (e.g. atomic
// metric updates). The traced hot path performs no additional allocations,
// so production metrics can stay attached without disturbing the
// pipeline's allocation budgets.
//
// MapTrace has exactly the fields of the pipeline's internal hook struct,
// so a Mapper attaches it by conversion, not by wrapping: the Mapper keeps
// the pointer, so set the hooks before mapping and leave them unchanged.
type MapTrace struct {
	// SeedingDone runs after the seeding step of one strand scan: seeds
	// is the total number of seed hits voting for the returned candidate
	// locations, candidates how many locations were produced, d the time
	// spent seeding. Called once or twice per read: the forward strand
	// first, then the reverse complement, which is seeded only if the
	// read has no confident hit when its forward candidates run out or
	// the next one has fewer than three votes.
	SeedingDone func(seeds, candidates int, d time.Duration)
	// FilterDone runs after the pre-alignment filter judged one candidate
	// region; accepted reports whether the candidate survived to the
	// alignment step. Not called when the pipeline has no filter.
	FilterDone func(accepted bool, d time.Duration)
	// AlignDone runs after the alignment step finished one candidate
	// region; ok reports whether alignment produced a result (false when
	// the candidate blew the window error budget, or crossed the distance
	// bound past which the mapper would discard it anyway).
	AlignDone func(ok bool, d time.Duration)
	// ReadDone runs once when a read finishes the pipeline: the
	// candidates considered, how many the filter rejected, how many were
	// accepted into (reached) the alignment step, whether the read
	// mapped, and the end-to-end duration.
	ReadDone func(candidates, filtered, accepted int, mapped bool, d time.Duration)
}

// AlignTrace is a set of hooks run around every alignment an Engine
// serves (Align, AlignGlobal, EditDistance, AlignBatch, AlignStream).
// Attach one with WithAlignTrace or Engine.SetAlignTrace.
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
// attach once right after NewEngine — or at construction, with
// WithAlignTrace.
func (e *Engine) SetAlignTrace(tr *AlignTrace) { e.trace.Store(tr) }
