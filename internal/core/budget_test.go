package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"genasm/internal/alphabet"
)

// diffBudget aligns the pair on both walkers and fails on any divergence:
// distance, CIGAR, text span, or the ErrWindowBudget error itself.
func diffBudget(t *testing.T, fast, generic *Workspace, text, pattern []byte, global bool, label string) {
	t.Helper()
	align := func(w *Workspace) (Alignment, error) {
		if global {
			return w.AlignGlobal(text, pattern)
		}
		return w.Align(text, pattern)
	}
	af, errF := align(fast)
	ag, errG := align(generic)
	if (errF == nil) != (errG == nil) {
		t.Fatalf("%s: error divergence: fast %v vs generic %v", label, errF, errG)
	}
	if errF != nil {
		if errors.Is(errF, ErrWindowBudget) != errors.Is(errG, ErrWindowBudget) {
			t.Fatalf("%s: error kind divergence: fast %v vs generic %v", label, errF, errG)
		}
		return
	}
	if af.Cigar.String() != ag.Cigar.String() {
		t.Fatalf("%s: CIGAR divergence:\n  fast    %s\n  generic %s", label, af.Cigar, ag.Cigar)
	}
	if af.Distance != ag.Distance || af.TextStart != ag.TextStart || af.TextEnd != ag.TextEnd {
		t.Fatalf("%s: result divergence: fast %+v vs generic %+v", label, af, ag)
	}
}

// TestEarlyTerminationDifferentialSweep drives the fast walker against
// the generic one where windows fail their error budget: budget-capped
// windows (MaxWindowErrors below the window size), several alphabets and
// window geometries, adaptive on and off, anchored and search-mode first
// windows. Unrelated pairs make ErrWindowBudget frequent. The scan
// rejects such a window after its kMax levels, with no early exit of its
// own (the name is kept from the early termination it used to have); the
// window oracle in dc_test.go pins that rejection against the per-edge
// scan, and both walkers must report the same result around it.
func TestEarlyTerminationDifferentialSweep(t *testing.T) {
	type cfgCase struct {
		name string
		cfg  Config
	}
	var cases []cfgCase
	for _, a := range []*alphabet.Alphabet{alphabet.DNA, alphabet.Protein} {
		for _, win := range []struct{ w, o int }{{64, 24}, {32, 8}, {16, 4}} {
			for _, k := range []int{2, 4, 8} {
				if k > win.w {
					continue
				}
				cases = append(cases, cfgCase{
					name: fmt.Sprintf("%s/W%d-O%d-k%d", a.Name(), win.w, win.o, k),
					cfg:  Config{Alphabet: a, WindowSize: win.w, Overlap: win.o, MaxWindowErrors: k},
				})
			}
		}
	}
	cases = append(cases,
		cfgCase{"dna/full-budget", Config{}},
		cfgCase{"dna/k8-noadaptive", Config{MaxWindowErrors: 8, NoAdaptive: true}},
		cfgCase{"dna/k6-search", Config{MaxWindowErrors: 6, FindFirstWindowStart: true}},
		cfgCase{"dna/k4-gapfirst", Config{MaxWindowErrors: 4, Order: OrderGapFirst}},
		cfgCase{"dna/k4-fixedorder", Config{MaxWindowErrors: 4, NoOrderSelection: true}},
		cfgCase{"dna/k4-multiword", Config{WindowSize: 128, Overlap: 48, MaxWindowErrors: 24}},
	)

	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, b := walkerPair(t, c.cfg)
			size := 4
			if c.cfg.Alphabet != nil {
				size = c.cfg.Alphabet.Size()
			}
			rng := rand.New(rand.NewPCG(7, uint64(ci)))
			budget := s.Config().MaxWindowErrors
			for trial := 0; trial < 40; trial++ {
				n := 1 + rng.IntN(260)
				text := make([]byte, n)
				for i := range text {
					text[i] = byte(rng.IntN(size))
				}
				var pattern []byte
				switch trial % 3 {
				case 0: // unrelated: drives ErrWindowBudget
					pattern = make([]byte, 1+rng.IntN(260))
					for i := range pattern {
						pattern[i] = byte(rng.IntN(size))
					}
				case 1: // near the budget boundary
					pattern = mutateAlpha(rng, text, budget+rng.IntN(budget+2), size)
				default: // clearly within budget
					pattern = mutateAlpha(rng, text, rng.IntN(budget+1), size)
				}
				if len(pattern) == 0 {
					continue
				}
				label := fmt.Sprintf("%s trial %d", c.name, trial)
				diffBudget(t, s, b, text, pattern, trial%2 == 0, label)
			}
		})
	}
}

// TestEarlyTerminationQuick fuzzes arbitrary byte pairs through a
// budget-capped DNA configuration on both walkers, in both modes.
func TestEarlyTerminationQuick(t *testing.T) {
	for _, global := range []bool{true, false} {
		s, b := walkerPair(t, Config{MaxWindowErrors: 5})
		prop := func(rawText, rawPattern []byte) bool {
			text := quickSeqs(rawText, 300)
			pattern := quickSeqs(rawPattern, 300)
			if len(pattern) == 0 {
				return true
			}
			diffBudget(t, s, b, text, pattern, global, fmt.Sprintf("global=%v", global))
			return !t.Failed()
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
			t.Error(err)
		}
	}
}

// TestEarlyTerminationRejectsFast pins that a hopeless budget-capped
// alignment reports ErrWindowBudget (a scan that stops at the window's
// budget must not turn failures into something else).
func TestEarlyTerminationRejectsFast(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	text := randSeq(rng, 256)
	pattern := randSeq(rng, 256) // unrelated: windows need far more than 3 errors
	ws := mustWS(t, Config{MaxWindowErrors: 3})
	if _, err := ws.Align(text, pattern); !errors.Is(err, ErrWindowBudget) {
		t.Fatalf("err = %v, want ErrWindowBudget", err)
	}
}
