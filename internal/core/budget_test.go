package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"genasm/internal/alphabet"
)

// TestEarlyTerminationDifferentialSweep drives the fast walker against
// the generic one over several alphabets and window geometries, anchored
// and search-mode first windows and the gap-first order, at the full
// error budget: every pair must align on both walkers with no error,
// unrelated pairs included (level mp of a window always matches), and
// with the same result. Each case's k scales the planted edits around
// it — a third of the pairs carry k to 2k+1 edits, a third at most k —
// and the other third are unrelated. (The k once capped the window's
// error levels, and the name is kept from the early termination that
// cap used to have.)
func TestEarlyTerminationDifferentialSweep(t *testing.T) {
	type cfgCase struct {
		name   string
		cfg    Config
		k      int
		search bool
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
					cfg:  Config{Alphabet: a, WindowSize: win.w, Overlap: win.o},
					k:    k,
				})
			}
		}
	}
	cases = append(cases,
		cfgCase{"dna/full-budget", Config{}, DefaultWindowSize, false},
		cfgCase{"dna/k6-search", Config{}, 6, true},
		cfgCase{"dna/k4-gapfirst", Config{Order: OrderGapFirst}, 4, false},
		cfgCase{"dna/k4-multiword", Config{WindowSize: 128, Overlap: 48}, 24, false},
	)

	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, b := walkerPair(t, c.cfg)
			size := alphabetSize(c.cfg)
			rng := rand.New(rand.NewPCG(7, uint64(ci)))
			for trial := 0; trial < 40; trial++ {
				n := 1 + rng.IntN(260)
				text := make([]byte, n)
				for i := range text {
					text[i] = byte(rng.IntN(size))
				}
				var pattern []byte
				switch trial % 3 {
				case 0: // unrelated: every window deep in its levels
					pattern = make([]byte, 1+rng.IntN(260))
					for i := range pattern {
						pattern[i] = byte(rng.IntN(size))
					}
				case 1: // k to 2k+1 edits
					pattern = mutateAlpha(rng, text, c.k+rng.IntN(c.k+2), size)
				default: // at most k edits
					pattern = mutateAlpha(rng, text, rng.IntN(c.k+1), size)
				}
				if len(pattern) == 0 {
					continue
				}
				label := fmt.Sprintf("%s trial %d", c.name, trial)
				diffAlign(t, s, b, text, pattern, trial%2 == 0, c.search, label)
			}
		})
	}
}

// TestEarlyTerminationQuick fuzzes arbitrary byte pairs through the
// default DNA configuration on both walkers, in both modes: every pair
// aligns with no error and the same result.
func TestEarlyTerminationQuick(t *testing.T) {
	for _, global := range []bool{true, false} {
		s, b := walkerPair(t, Config{})
		prop := func(rawText, rawPattern []byte) bool {
			text := quickSeqs(rawText, 300)
			pattern := quickSeqs(rawPattern, 300)
			if len(pattern) == 0 {
				return true
			}
			diffAlign(t, s, b, text, pattern, global, false, fmt.Sprintf("global=%v", global))
			return !t.Failed()
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
			t.Error(err)
		}
	}
}
