package mapper

import "time"

// Trace is a set of hooks run at each stage of the mapping pipeline for a
// single read — the net/http/httptrace analogue for read mapping, and the
// software rendition of the paper's per-pipeline-stage breakdown (seeding,
// pre-alignment filtering, alignment; Figure 1). Any hook may be nil. A
// nil *Trace costs one predictable branch per stage; a non-nil trace adds
// only the monotonic-clock reads bracketing each stage, so tracing is
// cheap enough to leave on in production.
//
// Hooks run synchronously on the mapping goroutine and must not block;
// they may be called concurrently from many goroutines when the Mapper
// is shared, so implementations must be concurrency-safe (e.g. atomic
// metric updates). Hooks must not retain their arguments past the call.
type Trace struct {
	// SeedingDone runs after the seeding step of one strand scan: seeds
	// is the total number of seed hits voting for the returned candidate
	// locations, candidates how many locations were produced, d the time
	// spent seeding. Called up to twice per read (forward, then — unless
	// a confident hit ended the read early — reverse complement).
	SeedingDone func(seeds, candidates int, d time.Duration)
	// FilterDone runs after the pre-alignment filter judged one candidate
	// region; accepted reports whether the candidate survived to the
	// alignment step. Not called when Config.Prefilter is off.
	FilterDone func(accepted bool, d time.Duration)
	// AlignDone runs after the alignment step finished one candidate
	// region; ok reports whether alignment produced a result (false when
	// the candidate blew the window error budget).
	AlignDone func(ok bool, d time.Duration)
	// ReadDone runs once when a read finishes the whole pipeline, with
	// the read's final counters (as in its Mapping: candidates
	// considered, filter rejections, candidates aligned), whether it
	// mapped, and the end-to-end duration. It is not called when the
	// pipeline aborts on a pipeline error (context cancellation, filter
	// failure).
	ReadDone func(candidates, filtered, aligned int, mapped bool, d time.Duration)
}

// now returns the current time only when the trace needs stage clocks —
// the nil path must stay free of clock reads.
func (t *Trace) now(need bool) time.Time {
	if t == nil || !need {
		return time.Time{}
	}
	return time.Now()
}
