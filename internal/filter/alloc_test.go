// The race detector instruments allocations, so this test only builds
// without it.

//go:build !race

package filter

import (
	"math/rand/v2"
	"testing"
)

// TestAcceptScratchAllocFree pins the mapper's prefilter at zero
// allocations once its Scratch is warm: the searcher is re-targeted per
// read, not rebuilt, and the decision's rows are sized once.
func TestAcceptScratchAllocFree(t *testing.T) {
	const m, k, n = 250, 16, 8
	rng := rand.New(rand.NewPCG(51, 0))
	regions, reads := make([][]byte, n), make([][]byte, n)
	for i := range regions {
		regions[i], reads[i] = mapperPair(rng, m, k, 0.05, i%2 == 0)
	}
	var s Scratch
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := (GenASMDC{}).AcceptScratch(&s, regions[i%n], reads[i%n], k); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("AcceptScratch allocates %.1f times per call, want 0", allocs)
	}
}
