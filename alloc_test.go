// Allocation-budget regression tests for the public mapping hot path: one
// MapRead — seeding, pre-alignment filtering, pooled GenASM alignment and
// result rendering — must stay within a handful of allocations per read
// (the issue pins <= 10, down from 56), with all per-read scratch pooled.
// The race detector instruments allocations, so this file only builds
// without it.

//go:build !race

package genasm

import (
	"context"
	"math/rand/v2"
	"testing"

	"genasm/internal/seq"
	"genasm/internal/simulate"
)

func TestMapReadAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewPCG(2030, 0))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(60000))
	reads, err := simulate.Reads(rng, genome, 8, simulate.Illumina250, false)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.NewMapper(alphabetDecode(genome), MapperConfig{SeedParams: SeedParams{SeedK: 15}, ErrorRate: 0.05, Prefilter: true})
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

	const budget = 10.0
	// A fixed read keeps the per-run path deterministic; sweep a few so
	// the budget holds across mapped shapes.
	for i, l := range letters[:4] {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := m.MapRead(ctx, l); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("read %d: MapRead allocs/op = %.1f, budget %.0f", i, allocs, budget)
		}
	}
}

// TestMapReadTracedAllocBudget holds the same budget with a metrics-backed
// MapTrace attached: observability must be free of per-read allocations, so
// production servers can keep stage tracing on without touching the
// hot-path budget above.
func TestMapReadTracedAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewPCG(2030, 0))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(60000))
	reads, err := simulate.Reads(rng, genome, 8, simulate.Illumina250, false)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.NewMapper(alphabetDecode(genome), MapperConfig{
		SeedParams: SeedParams{SeedK: 15}, ErrorRate: 0.05, Prefilter: true, Trace: metricsMapTrace(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	letters := make([][]byte, len(reads))
	for i, r := range reads {
		letters[i] = alphabetDecode(r.Seq)
	}
	for _, l := range letters {
		if _, err := m.MapRead(ctx, l); err != nil {
			t.Fatal(err)
		}
	}

	const budget = 10.0
	for i, l := range letters[:4] {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := m.MapRead(ctx, l); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("read %d: traced MapRead allocs/op = %.1f, budget %.0f", i, allocs, budget)
		}
	}
}
