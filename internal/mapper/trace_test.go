package mapper

import (
	"sync"
	"testing"
	"time"

	"genasm/internal/simulate"
)

// traceRecorder is a concurrency-safe Trace sink for tests.
type traceRecorder struct {
	mu         sync.Mutex
	seeds      int
	candidates int
	seedCalls  int
	filterOK   int
	filterNo   int
	alignOK    int
	alignErr   int
	reads      int
	readCands  int
	readFilt   int
	readAlign  int
	readMapped int
	readDur    time.Duration
	stageDur   time.Duration
}

func (r *traceRecorder) trace() *Trace {
	return &Trace{
		SeedingDone: func(seeds, candidates int, d time.Duration) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.seedCalls++
			r.seeds += seeds
			r.candidates += candidates
			r.stageDur += d
		},
		FilterDone: func(accepted bool, d time.Duration) {
			r.mu.Lock()
			defer r.mu.Unlock()
			if accepted {
				r.filterOK++
			} else {
				r.filterNo++
			}
			r.stageDur += d
		},
		AlignDone: func(ok bool, d time.Duration) {
			r.mu.Lock()
			defer r.mu.Unlock()
			if ok {
				r.alignOK++
			} else {
				r.alignErr++
			}
			r.stageDur += d
		},
		ReadDone: func(candidates, filtered, aligned int, mapped bool, d time.Duration) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.reads++
			r.readCands += candidates
			r.readFilt += filtered
			r.readAlign += aligned
			if mapped {
				r.readMapped++
			}
			r.readDur += d
		},
	}
}

// TestTraceObservesEveryStage pins the trace contract: per-read hook
// counts agree with the Mapping's own counters, stage durations are
// positive, and tracing never changes mapping results.
func TestTraceObservesEveryStage(t *testing.T) {
	genome, reads, pos := buildTestData(t, 120000, 20, simulate.Illumina100, false)
	rec := &traceRecorder{}
	traced := newMapper(t, genome, Config{ErrorRate: 0.05, Prefilter: true, Trace: rec.trace()})
	plain := newMapper(t, genome, Config{ErrorRate: 0.05, Prefilter: true})

	got, st, err := traced.MapAll(reads, pos, 32)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := plain.MapAll(reads, pos, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Pos != want[i].Pos || got[i].Distance != want[i].Distance ||
			got[i].Mapped != want[i].Mapped || got[i].Cigar.String() != want[i].Cigar.String() {
			t.Errorf("read %d: traced mapping %+v diverges from untraced %+v", i, got[i], want[i])
		}
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.reads != len(reads) {
		t.Fatalf("ReadDone ran %d times, want %d", rec.reads, len(reads))
	}
	if rec.readCands != st.Candidates || rec.readFilt != st.Filtered ||
		rec.readAlign != st.Aligned || rec.readMapped != st.Mapped {
		t.Errorf("ReadDone counters (cand=%d filt=%d aligned=%d mapped=%d) disagree with stats %+v",
			rec.readCands, rec.readFilt, rec.readAlign, rec.readMapped, st)
	}
	// Seeding reports candidates *generated*; Mapping.Candidates counts
	// only those *considered* before a confident hit ends the read early.
	if rec.candidates < st.Candidates {
		t.Errorf("trace saw %d candidates generated, below %d considered", rec.candidates, st.Candidates)
	}
	if rec.filterNo != st.Filtered {
		t.Errorf("trace saw %d filter rejections, stats say %d", rec.filterNo, st.Filtered)
	}
	if rec.filterOK+rec.filterNo != st.Candidates {
		t.Errorf("filter hook ran %d times, want one per candidate (%d)",
			rec.filterOK+rec.filterNo, st.Candidates)
	}
	if rec.alignOK+rec.alignErr != st.Aligned {
		t.Errorf("align hook ran %d times, stats say %d aligned", rec.alignOK+rec.alignErr, st.Aligned)
	}
	if rec.seedCalls < len(reads) {
		t.Errorf("seeding hook ran %d times for %d reads", rec.seedCalls, len(reads))
	}
	if rec.seeds < rec.candidates {
		t.Errorf("seed hits %d below candidate count %d (each candidate needs ≥1 vote)",
			rec.seeds, rec.candidates)
	}
	if rec.readDur <= 0 || rec.stageDur <= 0 {
		t.Errorf("durations not recorded: read=%v stages=%v", rec.readDur, rec.stageDur)
	}
	if rec.stageDur > rec.readDur {
		t.Errorf("stage time %v exceeds end-to-end read time %v", rec.stageDur, rec.readDur)
	}
}

// TestTraceNilHooks pins that a Trace with only some hooks set runs
// without touching the nil ones.
func TestTraceNilHooks(t *testing.T) {
	genome, reads, _ := buildTestData(t, 60000, 4, simulate.Illumina100, false)
	var readsDone int
	m := newMapper(t, genome, Config{
		ErrorRate: 0.05,
		Trace:     &Trace{ReadDone: func(int, int, int, bool, time.Duration) { readsDone++ }},
	})
	for _, r := range reads {
		if _, err := m.MapRead(r); err != nil {
			t.Fatal(err)
		}
	}
	if readsDone != len(reads) {
		t.Errorf("ReadDone ran %d times, want %d", readsDone, len(reads))
	}
}
