// Allocation-budget regression tests for the public mapping hot path: one
// MapRead — seeding, pre-alignment filtering, pooled GenASM alignment and
// the kept result — must stay within a handful of allocations per read,
// with all per-read scratch pooled. The race detector instruments
// allocations, so this file only builds without it.

//go:build !race

package genasm

import (
	"context"
	"io"
	"math/rand/v2"
	"strconv"
	"testing"

	"genasm/internal/seq"
	"genasm/internal/simulate"
)

// checkMapReadAllocBudget maps reads of the profile against a simulated
// genome with cfg and fails when MapRead allocates more than budget per
// read on any of the first four reads, after a warm-up pass over all of
// them.
func checkMapReadAllocBudget(t *testing.T, genomeLen, nReads int, p simulate.Profile, cfg MapperConfig, budget float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(2030, 0))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(genomeLen))
	reads, err := simulate.Reads(rng, genome, nReads, p, false)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.NewMapper(alphabetDecode(genome), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Letters are prepared outside the measured region: decoding input is
	// the caller's cost, not the mapper's.
	letters := make([][]byte, len(reads))
	for i, r := range reads {
		letters[i] = alphabetDecode(r.Seq)
	}

	// Warm-up grows the pooled scratch (workspaces, seeding arrays, CIGAR
	// double-buffers) to steady state.
	for _, l := range letters {
		if _, err := m.MapRead(ctx, l); err != nil {
			t.Fatal(err)
		}
	}

	// A fixed read keeps the per-run path deterministic; sweep a few so
	// the budget holds across mapped shapes.
	runs := 20
	if p.ReadLen > 1000 {
		runs = 3
	}
	for i, l := range letters[:4] {
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := m.MapRead(ctx, l); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("read %d: MapRead allocs/op = %.1f, budget %.0f", i, allocs, budget)
		}
	}
}

// TestMapReadAllocBudget holds short reads (Illumina 250 bp, prefilter on)
// to the measured 2 allocations per read plus one.
func TestMapReadAllocBudget(t *testing.T) {
	checkMapReadAllocBudget(t, 60000, 8, simulate.Illumina250,
		MapperConfig{SeedParams: SeedParams{SeedK: 15}, ErrorRate: 0.05, Prefilter: true}, 3)
}

// TestMapReadLongAllocBudget holds 10 kbp PacBio reads at 10% error (no
// prefilter, hundreds of windows per alignment) to the measured 2
// allocations per read plus one.
func TestMapReadLongAllocBudget(t *testing.T) {
	checkMapReadAllocBudget(t, 200000, 6, simulate.PacBio10,
		MapperConfig{SeedParams: SeedParams{SeedK: 15}, ErrorRate: 0.10}, 3)
}

// TestMapReadTracedAllocBudget holds the short-read budget with a
// metrics-backed MapTrace attached: observability must be free of
// per-read allocations, so production servers can keep stage tracing on
// without touching the hot-path budget above.
func TestMapReadTracedAllocBudget(t *testing.T) {
	checkMapReadAllocBudget(t, 60000, 8, simulate.Illumina250, MapperConfig{
		SeedParams: SeedParams{SeedK: 15}, ErrorRate: 0.05, Prefilter: true, Trace: metricsMapTrace(),
	}, 3)
}

// TestWriteSAMAllocBudget holds Mapper.WriteSAM's steady state to at most
// one allocation per call (the measured value is 0; a GC may empty the
// writer pool mid-run): the writer, its output buffer and its line buffer
// are reused across calls.
func TestWriteSAMAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewPCG(2030, 1))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(60000))
	reads, err := simulate.Reads(rng, genome, 8, simulate.Illumina250, false)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.NewMapper(alphabetDecode(genome), MapperConfig{SeedParams: SeedParams{SeedK: 15}, ErrorRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Read, len(reads))
	for i, r := range reads {
		batch[i] = Read{Name: "r" + strconv.Itoa(i), Seq: alphabetDecode(r.Seq)}
	}
	mappings, err := m.MapReads(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteSAM(io.Discard, mappings); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := m.WriteSAM(io.Discard, mappings); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("WriteSAM allocs/op = %.1f, budget 1", allocs)
	}
}
