package genasm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"iter"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"genasm/internal/alphabet"
	"genasm/internal/seq"
	"genasm/internal/simulate"
)

// streamJobs builds a mixed batch workload: mostly valid DNA pairs, with
// some invalid-letter jobs sprinkled in to exercise per-job errors.
func streamJobs(t testing.TB, n int, withBad bool) []BatchJob {
	t.Helper()
	rng := rand.New(rand.NewPCG(808, uint64(n)))
	jobs := make([]BatchJob, n)
	for i := range jobs {
		enc := seq.Random(rng, 150+rng.IntN(150))
		text := alphabet.DNA.Decode(enc)
		query := alphabet.DNA.Decode(mutateBench(rng, enc, 0.05))
		jobs[i] = BatchJob{Text: text, Query: query, Global: i%3 == 0}
		if withBad && i%17 == 5 {
			jobs[i].Query = []byte("ACGTXACGT") // X: outside the DNA alphabet
		}
	}
	return jobs
}

// TestAlignStreamMatchesAlignBatch is the differential acceptance test:
// the slice API (a wrapper over the stream core) and both stream modes
// must produce identical results, including per-job errors.
func TestAlignStreamMatchesAlignBatch(t *testing.T) {
	e, err := NewEngine(WithMaxWorkspaces(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	jobs := streamJobs(t, 300, true)

	batch, err := e.AlignBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(jobs) {
		t.Fatalf("batch results = %d, want %d", len(batch), len(jobs))
	}

	check := func(name string, results []BatchResult) {
		t.Helper()
		if len(results) != len(jobs) {
			t.Fatalf("%s: results = %d, want %d", name, len(results), len(jobs))
		}
		for i, res := range results {
			want := batch[i]
			if res.Index != i {
				t.Fatalf("%s: result %d has Index %d", name, i, res.Index)
			}
			if (res.Err == nil) != (want.Err == nil) {
				t.Fatalf("%s: job %d err = %v, batch err = %v", name, i, res.Err, want.Err)
			}
			if res.Err != nil {
				var ae *AlphabetError
				if !errors.As(res.Err, &ae) {
					t.Fatalf("%s: job %d err = %v, want *AlphabetError", name, i, res.Err)
				}
				continue
			}
			if res.Alignment.CIGAR != want.Alignment.CIGAR || res.Alignment.Distance != want.Alignment.Distance ||
				res.Alignment.TextStart != want.Alignment.TextStart || res.Alignment.TextEnd != want.Alignment.TextEnd {
				t.Fatalf("%s: job %d alignment differs:\n stream: %+v\n batch:  %+v", name, i, res.Alignment, want.Alignment)
			}
		}
	}

	var ordered []BatchResult
	for res := range e.AlignStream(ctx, slices.Values(jobs)) {
		ordered = append(ordered, res)
	}
	check("ordered", ordered)

	var unordered []BatchResult
	for res := range e.AlignStream(ctx, slices.Values(jobs), Unordered()) {
		unordered = append(unordered, res)
	}
	slices.SortFunc(unordered, func(a, b BatchResult) int { return a.Index - b.Index })
	check("unordered", unordered)
}

// streamCapacities runs a stream contract test on a one-workspace engine,
// which runs every job on the caller's goroutine, and on a larger one,
// which fans jobs out over worker goroutines.
func streamCapacities(t *testing.T, capacity int, test func(t *testing.T, e *Engine)) {
	for _, c := range []int{1, capacity} {
		t.Run(fmt.Sprintf("capacity=%d", c), func(t *testing.T) {
			e, err := NewEngine(WithMaxWorkspaces(c))
			if err != nil {
				t.Fatal(err)
			}
			test(t, e)
		})
	}
}

// TestAlignStreamOrderedUnderSaturation pins ordered-mode emission order
// with the pool saturated (far more jobs than workspaces) — run with
// -race in CI.
func TestAlignStreamOrderedUnderSaturation(t *testing.T) {
	streamCapacities(t, 4, func(t *testing.T, e *Engine) {
		jobs := streamJobs(t, 500, false)
		next := 0
		for res := range e.AlignStream(context.Background(), slices.Values(jobs)) {
			if res.Index != next {
				t.Fatalf("ordered stream emitted Index %d, want %d", res.Index, next)
			}
			if res.Err != nil {
				t.Fatalf("job %d: %v", res.Index, res.Err)
			}
			next++
		}
		if next != len(jobs) {
			t.Fatalf("stream emitted %d results, want %d", next, len(jobs))
		}
	})
}

// TestAlignStreamCancelledBeforeStart pins the cancellation contract:
// jobs that never start carry ctx.Err() in their result, in both the
// stream and the slice wrapper.
func TestAlignStreamCancelledBeforeStart(t *testing.T) {
	streamCapacities(t, 4, func(t *testing.T, e *Engine) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		jobs := streamJobs(t, 64, false)

		results, err := e.AlignBatch(ctx, jobs)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("AlignBatch err = %v, want context.Canceled", err)
		}
		if len(results) != len(jobs) {
			t.Fatalf("results = %d, want %d (cancellation must not shrink the result set)", len(results), len(jobs))
		}
		for i, res := range results {
			if !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("job %d err = %v, want context.Canceled", i, res.Err)
			}
		}

		n := 0
		for res := range e.AlignStream(ctx, slices.Values(jobs)) {
			if !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("stream job %d err = %v, want context.Canceled", res.Index, res.Err)
			}
			n++
		}
		if n != len(jobs) {
			t.Fatalf("cancelled stream emitted %d results, want %d", n, len(jobs))
		}
	})
}

// TestAlignStreamLazyWorkerSpawn is the regression test for the worker
// fan-out: feeding two jobs through an engine with capacity far above the
// job count must not spawn anywhere near Capacity goroutines.
func TestAlignStreamLazyWorkerSpawn(t *testing.T) {
	const capacity = 128
	e, err := NewEngine(WithMaxWorkspaces(capacity))
	if err != nil {
		t.Fatal(err)
	}
	jobs := make(chan BatchJob)
	jobSeq := func(yield func(BatchJob) bool) {
		for j := range jobs {
			if !yield(j) {
				return
			}
		}
	}
	before := runtime.NumGoroutine()
	next, stop := iter.Pull(e.AlignStream(context.Background(), jobSeq))
	defer stop()
	job := streamJobs(t, 1, false)[0]
	// Feed from a separate goroutine: the stream's dispatcher only starts
	// on the first next() call, so an inline send would deadlock.
	go func() {
		for range 2 {
			jobs <- job
		}
	}()
	for range 2 {
		res, ok := next()
		if !ok || res.Err != nil {
			t.Fatalf("stream result: ok=%v err=%v", ok, res.Err)
		}
	}
	// The stream is mid-flight with 2 jobs dispatched: worker count must
	// track demand (≈2), not capacity (128). The margin absorbs unrelated
	// runtime goroutines.
	if got := runtime.NumGoroutine(); got > before+16 {
		t.Fatalf("goroutines grew from %d to %d on a 2-job stream (capacity %d): workers not demand-driven", before, got, capacity)
	}
	close(jobs)
	if _, ok := next(); ok {
		t.Fatal("stream yielded a result after its input closed")
	}
}

// TestFanOutOrderedBoundedReorder pins ordered-mode backpressure: with a
// slow head-of-line job, dispatch must stall once ~2×workers results are
// outstanding instead of letting the reorder buffer absorb the whole
// stream (the O(1)-memory guarantee of the streaming API).
func TestFanOutOrderedBoundedReorder(t *testing.T) {
	const workers = 4
	const n = 2000
	var started atomic.Int64
	release := make(chan struct{})
	jobs := func(yield func(int) bool) {
		for i := range n {
			if !yield(i) {
				return
			}
		}
	}
	run := func(idx int, j int) int {
		started.Add(1)
		if idx == 0 {
			<-release // head-of-line straggler
		}
		return j
	}
	// Release the straggler once the other workers have run as far ahead
	// as the dispatch window lets them.
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for started.Load() < 2*workers-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond) // let any over-dispatch surface
		close(release)
	}()

	emitted := 0
	var maxLag int64
	for range fanOut(workers, true, jobs, run) {
		if emitted == 0 {
			// First result means job 0 finished; everything started
			// before that was stacked behind it in the reorder window.
			maxLag = started.Load() - 1
		}
		emitted++
	}
	if emitted != n {
		t.Fatalf("emitted %d results, want %d", emitted, n)
	}
	if maxLag > 2*workers+workers {
		t.Fatalf("reorder window grew to %d results behind a straggler (want <= ~%d)", maxLag, 2*workers)
	}
}

// TestAlignStreamEarlyStop checks that abandoning a stream mid-iteration
// stops dispatch — a one-workspace stream pulls no job past the last
// result taken, a fan-out no more than its dispatch window — and winds
// the fan-out down instead of leaking goroutines.
func TestAlignStreamEarlyStop(t *testing.T) {
	streamCapacities(t, 8, func(t *testing.T, e *Engine) {
		before := runtime.NumGoroutine()
		jobs := streamJobs(t, 200, false)
		var pulled atomic.Int64
		jobSeq := func(yield func(BatchJob) bool) {
			for _, j := range jobs {
				pulled.Add(1)
				if !yield(j) {
					return
				}
			}
		}
		seen := 0
		for res := range e.AlignStream(context.Background(), jobSeq) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if seen++; seen == 3 {
				break
			}
		}
		// In-flight jobs finish in the background; give them a moment.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before+2 {
			t.Fatalf("goroutines: %d before, %d after abandoned stream", before, got)
		}
		if e.Capacity() == 1 && pulled.Load() != int64(seen) {
			t.Fatalf("one-workspace stream pulled %d jobs for %d results", pulled.Load(), seen)
		}
		if limit := int64(seen + 3*e.Capacity()); pulled.Load() > limit {
			t.Fatalf("abandoned stream pulled %d jobs, want <= %d", pulled.Load(), limit)
		}
	})
}

// TestMapStreamMatchesMapReads pins MapReads (the slice wrapper) against
// MapStream in both modes on a simulated read set.
func TestMapStreamMatchesMapReads(t *testing.T) {
	rng := rand.New(rand.NewPCG(4242, 0))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(100_000))
	simReads, err := simulate.Reads(rng, genome, 60, simulate.Illumina150, true)
	if err != nil {
		t.Fatal(err)
	}
	reads := make([]Read, len(simReads))
	for i, r := range simReads {
		reads[i] = Read{Name: fmt.Sprintf("sim%d", i), Seq: alphabet.DNA.Decode(r.Seq)}
	}
	ctx := context.Background()
	streamCapacities(t, 6, func(t *testing.T, e *Engine) {
		m, err := e.NewMapper(alphabet.DNA.Decode(genome), MapperConfig{})
		if err != nil {
			t.Fatal(err)
		}

		want, err := m.MapReads(ctx, reads)
		if err != nil {
			t.Fatal(err)
		}

		compare := func(name string, got []MappingResult) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: results = %d, want %d", name, len(got), len(want))
			}
			for i, res := range got {
				if res.Err != nil {
					t.Fatalf("%s: read %d: %v", name, res.Index, res.Err)
				}
				w := want[res.Index]
				g := res.Mapping
				if g.Name != w.Name || g.Mapped != w.Mapped || g.Pos != w.Pos || g.RevComp != w.RevComp ||
					g.CIGAR() != w.CIGAR() || g.Distance != w.Distance {
					t.Fatalf("%s: read %d differs:\n stream: %+v\n slice:  %+v", name, res.Index, g, w)
				}
				if i != res.Index && name == "ordered" {
					t.Fatalf("ordered stream emitted Index %d at position %d", res.Index, i)
				}
			}
		}

		var ordered []MappingResult
		for res := range m.MapStream(ctx, slices.Values(reads)) {
			ordered = append(ordered, res)
		}
		compare("ordered", ordered)

		var unordered []MappingResult
		for res := range m.MapStream(ctx, slices.Values(reads), Unordered()) {
			unordered = append(unordered, res)
		}
		slices.SortFunc(unordered, func(a, b MappingResult) int { return a.Index - b.Index })
		compare("unordered", unordered)

		// WriteSAMStream over the stream must render exactly WriteSAM over the
		// slice.
		var slicesSAM, streamSAM bytes.Buffer
		if err := m.WriteSAM(&slicesSAM, want); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteSAMStream(&streamSAM, m.MapStream(ctx, slices.Values(reads))); err != nil {
			t.Fatal(err)
		}
		if slicesSAM.String() != streamSAM.String() {
			t.Fatal("WriteSAMStream output differs from WriteSAM")
		}
	})
}

// TestMapStreamPerReadErrors checks per-read error reporting: a bad read
// carries its error and name without poisoning the stream, while MapReads
// (fail-fast contract) surfaces the lowest-index error.
func TestMapStreamPerReadErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 1))
	genome := seq.Random(rng, 20_000)
	streamCapacities(t, 4, func(t *testing.T, e *Engine) {
		m, err := e.NewMapper(alphabet.DNA.Decode(genome), MapperConfig{})
		if err != nil {
			t.Fatal(err)
		}
		reads := []Read{
			{Name: "good0", Seq: alphabet.DNA.Decode(genome[100:250])},
			{Name: "bad", Seq: []byte("ACGTZZZACGT")},
			{Name: "good1", Seq: alphabet.DNA.Decode(genome[500:650])},
		}
		ctx := context.Background()

		var errs, oks int
		for res := range m.MapStream(ctx, slices.Values(reads)) {
			if res.Err != nil {
				errs++
				if res.Index != 1 || res.Mapping.Name != "bad" {
					t.Fatalf("error attributed to %d/%q", res.Index, res.Mapping.Name)
				}
				var ae *AlphabetError
				if !errors.As(res.Err, &ae) {
					t.Fatalf("err = %v, want *AlphabetError", res.Err)
				}
				continue
			}
			oks++
		}
		if errs != 1 || oks != 2 {
			t.Fatalf("errs=%d oks=%d, want 1/2", errs, oks)
		}

		if _, err := m.MapReads(ctx, reads); err == nil {
			t.Fatal("MapReads: want error for bad read")
		} else if want := "read 1 (bad)"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Fatalf("MapReads err = %v, want mention of %q", err, want)
		}

		// A context cancelled before the call fails the read set with the
		// context's error.
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := m.MapReads(cancelled, reads); !errors.Is(err, context.Canceled) {
			t.Fatalf("MapReads on a cancelled context: err = %v, want context.Canceled", err)
		}
	})
}
