// Allocation-budget regression tests: the Align hot path (DC + TB + CIGAR
// assembly) must stay allocation-free in steady state — every per-window
// structure lives on the Workspace, the software analogue of the
// accelerator's fixed SRAMs. The race detector instruments allocations, so
// these tests only build without it.

//go:build !race

package core

import (
	"math/rand/v2"
	"testing"
)

// allocCase builds a (ref, read) pair of the benchmark shapes.
func allocCase(refLen, readLen, subs, inss, dels int) (ref, read []byte) {
	rng := rand.New(rand.NewPCG(77, uint64(readLen)))
	ref = randSeq(rng, refLen)
	read = mutate(rng, ref[:readLen], subs, inss, dels)
	return ref, read
}

func TestAlignAllocFree(t *testing.T) {
	cases := []struct {
		name             string
		refLen, readLen  int
		subs, inss, dels int
		budget           float64
	}{
		// Short reads: strictly zero steady-state allocations.
		{"short100bp", 120, 100, 3, 1, 1, 0},
		// Long reads: the budget the issue pins (<= 40, down from 1340);
		// steady state is 0 but the headroom keeps the test honest if a
		// rare window shape grows a scratch buffer.
		{"long10kbp", 11500, 10000, 500, 250, 250, 40},
	}
	for _, c := range cases {
		// Leaf names match the root package's BenchmarkAlign.
		t.Run("kernel=scrooge/"+c.name, func(t *testing.T) {
			ref, read := allocCase(c.refLen, c.readLen, c.subs, c.inss, c.dels)
			ws := mustWS(t, Config{})
			// Warm-up: grow the CIGAR arena and traceback scratch to
			// their steady-state capacity.
			for range 3 {
				if _, err := ws.Align(ref, read); err != nil {
					t.Fatal(err)
				}
			}
			runs := 20
			if c.readLen > 1000 {
				runs = 3
			}
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := ws.Align(ref, read); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.budget {
				t.Errorf("Align allocs/op = %.1f, budget %.0f", allocs, c.budget)
			}
		})
	}
}

// TestAlignGlobalAllocFree pins the edit-distance path too (it shares the
// window loop but exercises tbBest's global cleanup).
func TestAlignGlobalAllocFree(t *testing.T) {
	ref, read := allocCase(1000, 980, 20, 10, 10)
	ws := mustWS(t, Config{})
	for range 3 {
		if _, err := ws.AlignGlobal(ref, read); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ws.AlignGlobal(ref, read); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("AlignGlobal allocs/op = %.1f, want 0", allocs)
	}
}

// TestAlignRegionAllocFree pins the rejection path: a candidate stopped
// by the distance bound returns the bare sentinel and allocates nothing.
func TestAlignRegionAllocFree(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 1))
	ref, read := randSeq(rng, 2100), randSeq(rng, 2000) // unrelated
	ws := mustWS(t, Config{})
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ws.AlignRegion(ref, read, 40); err != ErrDistanceBound {
			t.Fatalf("AlignRegion = %v, want ErrDistanceBound", err)
		}
	})
	if allocs > 0 {
		t.Errorf("rejected AlignRegion allocs/op = %.1f, want 0", allocs)
	}
}
