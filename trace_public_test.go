package genasm

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"genasm/internal/seq"
	"genasm/internal/simulate"
)

// alignTraceRecorder is a concurrency-safe AlignTrace sink for tests.
type alignTraceRecorder struct {
	mu       sync.Mutex
	acquires int
	waits    time.Duration
	done     int
	errs     int
	alignDur time.Duration
	textLen  int
	queryLen int
}

func (r *alignTraceRecorder) trace() *AlignTrace {
	return &AlignTrace{
		WorkspaceAcquired: func(wait time.Duration) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.acquires++
			r.waits += wait
		},
		Done: func(textLen, queryLen int, d time.Duration, err error) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.done++
			if err != nil {
				r.errs++
			}
			r.alignDur += d
			r.textLen += textLen
			r.queryLen += queryLen
		},
	}
}

// TestAlignTraceCoversAllPaths pins that one AlignTrace attached with
// SetAlignTrace observes Align, AlignGlobal, EditDistance and AlignBatch
// traffic (they all funnel through runEncoded), including failures.
func TestAlignTraceCoversAllPaths(t *testing.T) {
	rec := &alignTraceRecorder{}
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	e.SetAlignTrace(rec.trace())
	ctx := context.Background()
	text := []byte("ACGTACGTACGTACGTACGT")
	query := []byte("ACGTACGTACGAACGTACGT")

	if _, err := e.Align(ctx, text, query); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AlignGlobal(ctx, text, query); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EditDistance(ctx, text, query); err != nil {
		t.Fatal(err)
	}
	jobs := []BatchJob{{Text: text, Query: query}, {Text: text, Query: text}}
	results, err := e.AlignBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	// An encode failure never reaches the pool, so the trace must not fire.
	var alphaErr *AlphabetError
	if _, err := e.Align(ctx, []byte("NOPE!"), query); !errors.As(err, &alphaErr) {
		t.Fatalf("err = %v, want AlphabetError", err)
	}
	// A kernel failure (empty query) surfaces through Done with its error.
	if _, err := e.Align(ctx, text, nil); err == nil {
		t.Fatal("expected empty-query error")
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	const wantOK = 5 // Align + AlignGlobal + EditDistance + 2 batch items
	if rec.acquires != wantOK+1 {
		t.Errorf("WorkspaceAcquired ran %d times, want %d", rec.acquires, wantOK+1)
	}
	if rec.done != wantOK+1 || rec.errs != 1 {
		t.Errorf("Done ran %d times (%d errors), want %d (1 error)", rec.done, rec.errs, wantOK+1)
	}
	if rec.alignDur <= 0 || rec.waits < 0 {
		t.Errorf("durations not recorded: align=%v wait=%v", rec.alignDur, rec.waits)
	}
	if rec.textLen == 0 || rec.queryLen == 0 {
		t.Error("Done never saw input sizes")
	}
}

// TestSetAlignTraceDetach pins runtime attach/detach via SetAlignTrace.
func TestSetAlignTraceDetach(t *testing.T) {
	rec := &alignTraceRecorder{}
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := e.Align(ctx, []byte("ACGT"), []byte("ACGT")); err != nil {
		t.Fatal(err)
	}
	e.SetAlignTrace(rec.trace())
	if _, err := e.Align(ctx, []byte("ACGT"), []byte("ACGT")); err != nil {
		t.Fatal(err)
	}
	e.SetAlignTrace(nil)
	if _, err := e.Align(ctx, []byte("ACGT"), []byte("ACGT")); err != nil {
		t.Fatal(err)
	}
	if rec.done != 1 {
		t.Errorf("Done ran %d times, want 1 (only while attached)", rec.done)
	}
}

// mapTraceRecorder is a concurrency-safe MapTrace sink for tests.
type mapTraceRecorder struct {
	mu         sync.Mutex
	seedCalls  int
	seeds      int
	candidates int
	filterOK   int
	filterNo   int
	alignOK    int
	reads      int
	mapped     int
	sumCand    int
	sumFilt    int
	sumAcc     int
	readDur    time.Duration
}

func (r *mapTraceRecorder) trace() *MapTrace {
	return &MapTrace{
		SeedingDone: func(seeds, candidates int, d time.Duration) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.seedCalls++
			r.seeds += seeds
			r.candidates += candidates
		},
		FilterDone: func(accepted bool, d time.Duration) {
			r.mu.Lock()
			defer r.mu.Unlock()
			if accepted {
				r.filterOK++
			} else {
				r.filterNo++
			}
		},
		AlignDone: func(ok bool, d time.Duration) {
			r.mu.Lock()
			defer r.mu.Unlock()
			if ok {
				r.alignOK++
			}
		},
		ReadDone: func(candidates, filtered, accepted int, mapped bool, d time.Duration) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.reads++
			if mapped {
				r.mapped++
			}
			r.sumCand += candidates
			r.sumFilt += filtered
			r.sumAcc += accepted
			r.readDur += d
		},
	}
}

// TestMapTracePublicAPI pins the MapperConfig.Trace wiring: hooks fire
// through the concurrent MapReads path and the unpacked ReadDone counters
// agree with the per-read counters the public ReadMapping reports.
func TestMapTracePublicAPI(t *testing.T) {
	rng := rand.New(rand.NewPCG(97, 7))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(80000))
	simReads, err := simulate.Reads(rng, genome, 16, simulate.Illumina100, false)
	if err != nil {
		t.Fatal(err)
	}
	reads := make([]Read, len(simReads))
	for i, r := range simReads {
		reads[i] = Read{Name: "r", Seq: alphabetDecode(r.Seq)}
	}

	e, err := NewEngine(WithSearchStart(true))
	if err != nil {
		t.Fatal(err)
	}
	rec := &mapTraceRecorder{}
	m, err := e.NewMapper(alphabetDecode(genome), MapperConfig{ErrorRate: 0.05, Prefilter: true, Trace: rec.trace()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.MapReads(context.Background(), reads)
	if err != nil {
		t.Fatal(err)
	}

	var wantCand, wantFilt, wantAcc, wantMapped int
	for _, mp := range got {
		wantCand += mp.Candidates
		wantFilt += mp.Filtered
		wantAcc += mp.Aligned
		if mp.Mapped {
			wantMapped++
		}
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.reads != len(reads) {
		t.Fatalf("ReadDone ran %d times, want %d", rec.reads, len(reads))
	}
	if rec.mapped != wantMapped {
		t.Errorf("trace saw %d mapped reads, results say %d", rec.mapped, wantMapped)
	}
	if rec.sumCand != wantCand || rec.sumFilt != wantFilt || rec.sumAcc != wantAcc {
		t.Errorf("ReadDone counters (cand=%d filt=%d acc=%d) disagree with results (%d %d %d)",
			rec.sumCand, rec.sumFilt, rec.sumAcc, wantCand, wantFilt, wantAcc)
	}
	if rec.filterOK+rec.filterNo != wantCand {
		t.Errorf("filter hook ran %d times, want one per considered candidate (%d)",
			rec.filterOK+rec.filterNo, wantCand)
	}
	if rec.alignOK < wantMapped {
		t.Errorf("align hook saw %d successes, below %d mapped reads", rec.alignOK, wantMapped)
	}
	if rec.seedCalls < len(reads) {
		t.Errorf("seeding hook ran %d times for %d reads", rec.seedCalls, len(reads))
	}
	if rec.candidates < wantCand {
		t.Errorf("seeding generated %d candidates, below %d considered", rec.candidates, wantCand)
	}
	if rec.readDur <= 0 {
		t.Error("read durations not recorded")
	}
}
