package genasm

import (
	"iter"
	"sync"
)

// StreamOption configures Engine.AlignStream and Mapper.MapStream.
type StreamOption func(*streamSettings)

type streamSettings struct {
	unordered bool
}

// Unordered lets a stream emit results as they complete instead of in
// input order — the maximum-throughput mode: a slow job delays only its
// own result, not everything behind it. Results carry their input position
// (BatchResult.Index / MappingResult.Index), so callers can still
// reassociate them with their jobs.
func Unordered() StreamOption {
	return func(s *streamSettings) { s.unordered = true }
}

// fanOut is the one bounded worker fan-out behind AlignStream, MapStream,
// AlignBatch and MapReads: it pulls jobs from a sequence, runs them on up
// to maxWorkers workers, and yields results either in input order or as
// they complete.
//
// With one worker (maxWorkers <= 1) there is nothing to overlap, so each
// job runs on the caller's goroutine as it is pulled and its result is
// yielded at once: no goroutines, channels or reorder buffer, results
// trivially in input order. This is the path of a one-workspace engine and
// of a one-job batch.
//
// With more, workers are goroutines spawned on demand, one at a time as
// jobs arrive without an idle worker to take them, so a stream of n jobs
// starts at most min(n, maxWorkers) goroutines — capacity far above the
// job count costs nothing. Memory is bounded by the worker count: at most
// ~2×maxWorkers jobs are in flight or buffered at any moment, independent
// of stream length, mirroring the accelerator's fixed count of per-vault
// GenASM units streaming reads through (Section 10.5).
//
// If the consumer stops iterating early, dispatch stops and the worker
// goroutines wind down after finishing the jobs they already hold; runs
// that should stop mid-job must watch their own context.
func fanOut[J, R any](maxWorkers int, ordered bool, jobs iter.Seq[J], run func(idx int, job J) R) iter.Seq[R] {
	return func(yield func(R) bool) {
		if maxWorkers <= 1 {
			idx := 0
			for job := range jobs {
				if !yield(run(idx, job)) {
					return
				}
				idx++
			}
			return
		}
		type task struct {
			idx int
			job J
		}
		type done struct {
			idx int
			res R
		}
		// stop tells the producer side that the consumer has quit early.
		stop := make(chan struct{})
		var stopOnce sync.Once
		quit := func() { stopOnce.Do(func() { close(stop) }) }
		defer quit()

		in := make(chan task) // unbuffered: a send succeeds only when a worker is idle
		results := make(chan done, maxWorkers)
		dispatched := make(chan struct{})
		// Ordered mode needs explicit backpressure: without it a slow
		// head-of-line job lets every other worker keep completing while
		// the emitter buffers their results indefinitely. Each dispatched
		// task takes a credit; the emitter returns it when the result is
		// yielded, so dispatch stalls once 2×maxWorkers results are
		// outstanding and the reorder buffer stays bounded. (Unordered
		// mode is bounded already: workers block on the results buffer.)
		var credits chan struct{}
		if ordered {
			credits = make(chan struct{}, 2*maxWorkers)
		}
		var wg sync.WaitGroup
		worker := func() {
			defer wg.Done()
			for t := range in {
				d := done{t.idx, run(t.idx, t.job)}
				select {
				case results <- d:
				case <-stop:
					return
				}
			}
		}

		// Dispatcher: pull jobs, grow the worker set only when no idle
		// worker picks a job up immediately.
		go func() {
			defer close(dispatched)
			defer close(in)
			started, idx := 0, 0
			for job := range jobs {
				if credits != nil {
					select {
					case credits <- struct{}{}:
					case <-stop:
						return
					}
				}
				t := task{idx, job}
				idx++
				if started < maxWorkers {
					select {
					case in <- t:
						continue
					case <-stop:
						return
					default:
						wg.Add(1)
						started++
						go worker()
					}
				}
				select {
				case in <- t:
				case <-stop:
					return
				}
			}
		}()
		// Close results once every dispatched job has reported.
		go func() {
			<-dispatched
			wg.Wait()
			close(results)
		}()

		if !ordered {
			for d := range results {
				if !yield(d.res) {
					return
				}
			}
			return
		}
		// Ordered: hold out-of-order results until their turn. The credit
		// window bounds the pending set at 2×maxWorkers.
		next := 0
		pending := make(map[int]R)
		for d := range results {
			if d.idx != next {
				pending[d.idx] = d.res
				continue
			}
			if !yield(d.res) {
				return
			}
			<-credits
			next++
			for {
				r, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				if !yield(r) {
					return
				}
				<-credits
				next++
			}
		}
	}
}
