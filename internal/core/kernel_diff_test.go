package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"genasm/internal/alphabet"
)

// kernelPair builds one workspace per kernel from the same base config.
func kernelPair(t testing.TB, cfg Config) (scrooge, baseline *Workspace) {
	t.Helper()
	cfg.Kernel = KernelScrooge
	scrooge = mustWS(t, cfg)
	cfg.Kernel = KernelBaseline
	baseline = mustWS(t, cfg)
	return scrooge, baseline
}

// diffAlign aligns the pair on both kernels and fails on any divergence in
// CIGAR, distance or text span — the SENE level-major kernel must be
// bit-exact against the paper's per-edge storage.
func diffAlign(t *testing.T, scrooge, baseline *Workspace, text, pattern []byte, global bool, label string) {
	t.Helper()
	align := func(w *Workspace) (Alignment, error) {
		if global {
			return w.AlignGlobal(text, pattern)
		}
		return w.Align(text, pattern)
	}
	as, errS := align(scrooge)
	ab, errB := align(baseline)
	if (errS == nil) != (errB == nil) {
		t.Fatalf("%s: error divergence: scrooge %v vs baseline %v", label, errS, errB)
	}
	if errS != nil {
		return
	}
	if as.Cigar.String() != ab.Cigar.String() {
		t.Fatalf("%s: CIGAR divergence:\n  scrooge  %s\n  baseline %s", label, as.Cigar, ab.Cigar)
	}
	if as.Distance != ab.Distance || as.TextStart != ab.TextStart || as.TextEnd != ab.TextEnd {
		t.Fatalf("%s: result divergence: scrooge %+v vs baseline %+v", label, as, ab)
	}
}

// TestKernelEquivalenceQuick drives both kernels with testing/quick pairs
// under the default configuration, in global and semi-global mode.
func TestKernelEquivalenceQuick(t *testing.T) {
	for _, global := range []bool{true, false} {
		s, b := kernelPair(t, Config{})
		prop := func(rawText, rawPattern []byte) bool {
			text := quickSeqs(rawText, 300)
			pattern := quickSeqs(rawPattern, 300)
			if len(pattern) == 0 {
				return true
			}
			diffAlign(t, s, b, text, pattern, global, fmt.Sprintf("global=%v", global))
			return !t.Failed()
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
			t.Error(err)
		}
	}
}

// sweepCase is one configuration of the kernel sweep.
type sweepCase struct {
	name string
	cfg  Config
}

// sweepConfigs is the configuration space both kernels must agree across:
// alphabets, window geometries (single- and multi-word, small overlaps),
// error budgets, search mode, traceback orders and the adaptive toggle.
func sweepConfigs() []sweepCase {
	alphabets := []*alphabet.Alphabet{alphabet.DNA, alphabet.Protein, alphabet.Bytes}
	windows := []struct{ w, o int }{{64, 24}, {32, 8}, {16, 4}, {128, 48}, {64, 0}}
	var cases []sweepCase
	for _, a := range alphabets {
		for _, win := range windows {
			cases = append(cases, sweepCase{
				name: fmt.Sprintf("%s/W%d-O%d", a.Name(), win.w, win.o),
				cfg:  Config{Alphabet: a, WindowSize: win.w, Overlap: win.o},
			})
		}
	}
	cases = append(cases,
		sweepCase{"dna/search", Config{FindFirstWindowStart: true}},
		sweepCase{"dna/k8", Config{MaxWindowErrors: 8}},
		sweepCase{"dna/k16-W32", Config{WindowSize: 32, Overlap: 8, MaxWindowErrors: 16}},
		sweepCase{"dna/noadaptive", Config{NoAdaptive: true}},
		sweepCase{"dna/search-noadaptive", Config{FindFirstWindowStart: true, NoAdaptive: true}},
		sweepCase{"dna/k4-budget", Config{MaxWindowErrors: 4}},
		sweepCase{"dna/k4-budget-noadaptive", Config{MaxWindowErrors: 4, NoAdaptive: true}},
		sweepCase{"dna/gapfirst", Config{Order: OrderGapFirst}},
		sweepCase{"dna/delfirst", Config{Order: OrderDelFirst}},
		sweepCase{"dna/fixedorder", Config{NoOrderSelection: true}},
		sweepCase{"dna/noaffine", Config{NoAffineExtend: true}},
	)
	return cases
}

// alphabetSize is the code count of the configuration's alphabet.
func alphabetSize(cfg Config) int {
	if cfg.Alphabet != nil {
		return cfg.Alphabet.Size()
	}
	return 4
}

// sweepPair draws one sweep input of up to 300 letters: every third trial
// an unrelated pair, otherwise a text and a mutated copy of it.
func sweepPair(rng *rand.Rand, size, trial int) (text, pattern []byte) {
	n := 1 + rng.IntN(300)
	text = make([]byte, n)
	for i := range text {
		text[i] = byte(rng.IntN(size))
	}
	if trial%3 == 0 {
		pattern = make([]byte, 1+rng.IntN(300))
		for i := range pattern {
			pattern[i] = byte(rng.IntN(size))
		}
	} else {
		e := rng.IntN(max(1, n/6))
		pattern = mutateAlpha(rng, text, e, size)
	}
	return text, pattern
}

// TestKernelEquivalenceConfigSweep runs both kernels over sweepConfigs.
func TestKernelEquivalenceConfigSweep(t *testing.T) {
	for ci, c := range sweepConfigs() {
		t.Run(c.name, func(t *testing.T) {
			s, b := kernelPair(t, c.cfg)
			size := alphabetSize(c.cfg)
			rng := rand.New(rand.NewPCG(42, uint64(ci)))
			for trial := 0; trial < 25; trial++ {
				text, pattern := sweepPair(rng, size, trial)
				label := fmt.Sprintf("%s trial %d", c.name, trial)
				diffAlign(t, s, b, text, pattern, trial%2 == 0, label)
				if t.Failed() {
					t.Logf("text=%v pattern=%v", text, pattern)
					return
				}
			}
		})
	}
}

// mutateAlpha applies e random edits drawn from an alphabet of the given
// size.
func mutateAlpha(rng *rand.Rand, s []byte, e, size int) []byte {
	out := append([]byte(nil), s...)
	for i := 0; i < e; i++ {
		switch rng.IntN(3) {
		case 0:
			p := rng.IntN(len(out))
			out[p] = byte((int(out[p]) + 1 + rng.IntN(size-1)) % size)
		case 1:
			p := rng.IntN(len(out) + 1)
			out = append(out[:p], append([]byte{byte(rng.IntN(size))}, out[p:]...)...)
		default:
			if len(out) > 1 {
				p := rng.IntN(len(out))
				out = append(out[:p], out[p+1:]...)
			}
		}
	}
	return out
}

// TestKernelEquivalenceEdgeShapes pins the shapes where the storage
// layouts differ most: terminal windows with maximal phantom padding,
// windows at the W-O consumption cap, and empty text.
func TestKernelEquivalenceEdgeShapes(t *testing.T) {
	s, b := kernelPair(t, Config{})
	W, O := DefaultWindowSize, DefaultOverlap
	rng := rand.New(rand.NewPCG(7, 7))
	shapes := []struct{ nt, mp int }{
		{0, 5},           // empty text: all insertions
		{1, 2},           // trailing insertion via phantom padding
		{W - O - 1, W},   // text shorter than the consumption cap
		{W - O, W - O},   // exactly the consumption cap
		{W, W},           // one full window
		{W + 1, W},       // just over one window
		{2*W - 1, W + 3}, // terminal window with near-max padding
		{3*W + 5, 3 * W}, // several capped windows before the terminal one
	}
	for si, sh := range shapes {
		text := randSeq(rng, sh.nt)
		pattern := mutate(rng, randSeq(rng, sh.mp), 2, 1, 1)
		if len(pattern) == 0 {
			pattern = []byte{0}
		}
		diffAlign(t, s, b, text, pattern, true, fmt.Sprintf("shape %d (nt=%d mp=%d)", si, sh.nt, sh.mp))
		diffAlign(t, s, b, text, pattern, false, fmt.Sprintf("shape %d semi (nt=%d mp=%d)", si, sh.nt, sh.mp))
	}
}

// TestScroogeFootprintReduction pins the SENE memory win: the Scrooge
// workspace must be at least 2.5x smaller than the baseline's per-edge
// stores for the default configuration.
func TestScroogeFootprintReduction(t *testing.T) {
	s, b := kernelPair(t, Config{})
	sf, bf := s.FootprintBytes(), b.FootprintBytes()
	if sf <= 0 || bf <= 0 {
		t.Fatalf("footprints not reported: scrooge %d, baseline %d", sf, bf)
	}
	if ratio := float64(bf) / float64(sf); ratio < 2.5 {
		t.Fatalf("scrooge footprint %dB vs baseline %dB: reduction %.2fx < 2.5x", sf, bf, ratio)
	}
}

// TestKernelString covers the Stringer and the validation of unknown
// kernels.
func TestKernelString(t *testing.T) {
	if KernelScrooge.String() != "scrooge" || KernelBaseline.String() != "baseline" {
		t.Fatalf("kernel names: %s, %s", KernelScrooge, KernelBaseline)
	}
	if _, err := New(Config{Kernel: Kernel(99)}); err == nil {
		t.Fatal("unknown kernel should fail validation")
	}
}
