// Allocation-budget regression test: once its scratch has grown to the
// read length, the seeding step allocates nothing — the staged lookup
// arrays, the implied starts and the candidate list are all reused. The
// race detector instruments allocations, so this test only builds without
// it.

//go:build !race

package index

import (
	"math/rand/v2"
	"testing"
)

func TestSeedingAllocFree(t *testing.T) {
	ref := testRef(50000, 60)
	full, err := Build(ref, 15)
	if err != nil {
		t.Fatal(err)
	}
	mini, err := BuildMinimizer(ref, 15, 10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(61, 0))
	read := append([]byte(nil), ref[20000:20250]...)
	for range 12 { // ~5% substitutions
		p := rng.IntN(len(read))
		read[p] = (read[p] + byte(1+rng.IntN(3))) % 4
	}
	for _, tc := range []struct {
		name string
		idx  *Index
	}{{"full", full}, {"minimizer", mini}} {
		t.Run(tc.name, func(t *testing.T) {
			var s, rev SeedScratch
			if len(tc.idx.CandidateLocationsInto(&s, read, 8, nil)) == 0 {
				t.Fatal("no candidates for a 5% error read")
			}
			// AllocsPerRun makes one more warm-up call of its own before it
			// counts.
			if n := testing.AllocsPerRun(100, func() {
				tc.idx.CandidateLocationsInto(&s, read, 8, nil)
			}); n != 0 {
				t.Errorf("%v allocs per call after warm-up, want 0", n)
			}
			// The fused pass that also records the reverse strand.
			if n := testing.AllocsPerRun(100, func() {
				tc.idx.CandidateLocationsInto(&s, read, 8, &rev)
				rev.Rank(8)
			}); n != 0 {
				t.Errorf("%v allocs per fused call after warm-up, want 0", n)
			}
		})
	}
}
