package genasm

import (
	"context"
	"iter"
	"slices"
)

// BatchJob is one alignment task for AlignStream/AlignBatch: Query against
// Text, both as letters of the engine's alphabet.
type BatchJob struct {
	Text, Query []byte
	// Global selects end-to-end alignment.
	Global bool
}

// BatchResult pairs one job's Alignment with its error. Per-job failures —
// including letters outside the engine's alphabet, reported as an
// *AlphabetError — land here, so one bad job never poisons the rest of a
// batch or stream.
type BatchResult struct {
	// Index is the 0-based position of the job in the input stream or
	// slice — how Unordered stream consumers reassociate results with
	// jobs.
	Index     int
	Alignment Alignment
	Err       error
}

// AlignStream aligns a stream of jobs and yields a stream of results —
// the bounded-memory core every batch path runs on, and the software
// mirror of the accelerator streaming reads through its fixed count of
// per-vault GenASM units (Section 10.5). Jobs are pulled from the iterator
// on demand. A one-workspace engine runs each on the calling goroutine as
// it is pulled; a larger one fans them out over at most Engine.Capacity
// worker goroutines (spawned lazily, so small streams start few
// goroutines), with only ~2×Capacity jobs in flight or buffered at any
// moment regardless of stream length.
//
// By default results come back in input order with per-job errors in
// BatchResult.Err. With the Unordered option, results are yielded as they
// complete — maximum throughput, with BatchResult.Index identifying each
// job.
//
// When ctx ends, jobs that have not started carry ctx.Err() in their
// BatchResult and the stream drains promptly. Stopping iteration early
// stops dispatch; jobs already picked up by workers finish in the
// background (cancel ctx to cut them short). The returned iterator is
// single-use.
func (e *Engine) AlignStream(ctx context.Context, jobs iter.Seq[BatchJob], opts ...StreamOption) iter.Seq[BatchResult] {
	var s streamSettings
	for _, o := range opts {
		o(&s)
	}
	return e.alignStream(ctx, e.Capacity(), !s.unordered, jobs)
}

// alignStream is AlignStream over at most workers workers.
func (e *Engine) alignStream(ctx context.Context, workers int, ordered bool, jobs iter.Seq[BatchJob]) iter.Seq[BatchResult] {
	return fanOut(workers, ordered, jobs, func(idx int, job BatchJob) BatchResult {
		res := e.alignJob(ctx, job)
		res.Index = idx
		return res
	})
}

// AlignBatch aligns a slice of jobs through the engine's workspace pool.
// It shares AlignStream's core over min(Engine.Capacity, len(jobs))
// workers — so a one-workspace engine or a one-job batch runs on the
// calling goroutine — and both APIs produce identical results.
//
// Results are in job order, with per-job errors in BatchResult.Err. The
// returned error is non-nil only when ctx ends before the batch drains;
// jobs not yet run then carry ctx's error in their BatchResult.
func (e *Engine) AlignBatch(ctx context.Context, jobs []BatchJob) ([]BatchResult, error) {
	results := make([]BatchResult, len(jobs))
	for res := range e.alignStream(ctx, min(e.Capacity(), len(jobs)), false, slices.Values(jobs)) {
		results[res.Index] = res
	}
	return results, ctx.Err()
}

// alignJob runs one batch job through the shared alignment dispatch,
// folding every failure — including a context that ended before the job
// started — into the result.
func (e *Engine) alignJob(ctx context.Context, job BatchJob) BatchResult {
	if err := ctx.Err(); err != nil {
		return BatchResult{Err: err}
	}
	encText, err := e.encode("text", job.Text)
	if err != nil {
		return BatchResult{Err: err}
	}
	encQuery, err := e.encode("query", job.Query)
	if err != nil {
		return BatchResult{Err: err}
	}
	aln, err := e.runEncoded(ctx, encText, encQuery, job.Global)
	return BatchResult{Alignment: aln, Err: err}
}
