package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"genasm/internal/alphabet"
)

// walkerPair builds two workspaces from the same config: one runs the
// walker New picks (the single-word fast walker when W <= 64), the other
// the generic walker over the edge queries.
func walkerPair(t testing.TB, cfg Config) (fast, generic *Workspace) {
	t.Helper()
	fast, generic = mustWS(t, cfg), mustWS(t, cfg)
	generic.fast = false
	return fast, generic
}

// diffAlign aligns the pair on both walkers and fails on any error or any
// divergence in CIGAR, distance or text span. A global pair runs
// AlignGlobal; otherwise search picks AlignRegion over Align. No valid
// pair may fail: every window has a distance (level mp always matches, see
// dcScanScrooge), so an error means a broken invariant. The single-word
// walker must be bit-exact against the generic one, whose edge queries
// the window oracle in dc_test.go pins to the paper's per-edge stores.
func diffAlign(t *testing.T, fast, generic *Workspace, text, pattern []byte, global, search bool, label string) {
	t.Helper()
	align := func(w *Workspace) (Alignment, error) {
		switch {
		case global:
			return w.AlignGlobal(text, pattern)
		case search:
			return w.AlignRegion(text, pattern, -1)
		}
		return w.Align(text, pattern)
	}
	af, errF := align(fast)
	ag, errG := align(generic)
	if errF != nil || errG != nil {
		t.Fatalf("%s: alignment failed: fast %v, generic %v", label, errF, errG)
	}
	if af.Cigar.String() != ag.Cigar.String() {
		t.Fatalf("%s: CIGAR divergence:\n  fast    %s\n  generic %s", label, af.Cigar, ag.Cigar)
	}
	if af.Distance != ag.Distance || af.TextStart != ag.TextStart || af.TextEnd != ag.TextEnd {
		t.Fatalf("%s: result divergence: fast %+v vs generic %+v", label, af, ag)
	}
}

// TestKernelEquivalenceQuick drives both walkers with testing/quick pairs
// under the default configuration, in global and semi-global mode.
func TestKernelEquivalenceQuick(t *testing.T) {
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
		if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
			t.Error(err)
		}
	}
}

// sweepCase is one configuration of the kernel sweep. A case with k > 0
// draws its related pairs with at most k edits (see sweepPair); a search
// case runs its semi-global pairs with a search-mode first window.
type sweepCase struct {
	name   string
	cfg    Config
	k      int
	search bool
}

// sweepConfigs is the configuration space both walkers must agree across:
// alphabets, window geometries, search mode, traceback orders and, on
// the kN cases, pairs with few edits (the N once capped the window's
// error levels). The multi-word geometries (W = 128) run the generic
// walker on both sides, so the walker sweep only checks that they align
// deterministically; the distance-bound sweep covers them in full.
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
		sweepCase{"dna/search", Config{}, 0, true},
		sweepCase{"dna/k8", Config{}, 8, false},
		sweepCase{"dna/k16-W32", Config{WindowSize: 32, Overlap: 8}, 16, false},
		sweepCase{"dna/k4-budget", Config{}, 4, false},
		sweepCase{"dna/gapfirst", Config{Order: OrderGapFirst}, 0, false},
		sweepCase{"dna/delfirst", Config{Order: OrderDelFirst}, 0, false},
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
// an unrelated pair, otherwise a text and a copy of it with up to a sixth
// of its length in edits, or with at most k edits when k > 0.
func sweepPair(rng *rand.Rand, size, trial, k int) (text, pattern []byte) {
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
		bound := max(1, n/6)
		if k > 0 {
			bound = k + 1
		}
		pattern = mutateAlpha(rng, text, rng.IntN(bound), size)
	}
	return text, pattern
}

// TestKernelEquivalenceConfigSweep runs both walkers over sweepConfigs.
func TestKernelEquivalenceConfigSweep(t *testing.T) {
	for ci, c := range sweepConfigs() {
		t.Run(c.name, func(t *testing.T) {
			s, b := walkerPair(t, c.cfg)
			size := alphabetSize(c.cfg)
			rng := rand.New(rand.NewPCG(42, uint64(ci)))
			for trial := 0; trial < 25; trial++ {
				text, pattern := sweepPair(rng, size, trial, c.k)
				label := fmt.Sprintf("%s trial %d", c.name, trial)
				diffAlign(t, s, b, text, pattern, trial%2 == 0, c.search, label)
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

// TestKernelEquivalenceEdgeShapes pins the shapes where the walkers'
// bookkeeping differs most: terminal windows with maximal phantom
// padding, windows at the W-O consumption cap, and empty text.
func TestKernelEquivalenceEdgeShapes(t *testing.T) {
	s, b := walkerPair(t, Config{})
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
		diffAlign(t, s, b, text, pattern, true, false, fmt.Sprintf("shape %d (nt=%d mp=%d)", si, sh.nt, sh.mp))
		diffAlign(t, s, b, text, pattern, false, false, fmt.Sprintf("shape %d semi (nt=%d mp=%d)", si, sh.nt, sh.mp))
	}
}

// TestScroogeFootprintReduction pins the SENE memory win: the workspace
// must be at least 2.5x smaller than the paper's per-edge stores for the
// default configuration.
func TestScroogeFootprintReduction(t *testing.T) {
	sf, bf := mustWS(t, Config{}).FootprintBytes(), newPerEdge(Config{}).footprintBytes()
	if sf <= 0 || bf <= 0 {
		t.Fatalf("footprints not reported: scrooge %d, per-edge %d", sf, bf)
	}
	if ratio := float64(bf) / float64(sf); ratio < 2.5 {
		t.Fatalf("scrooge footprint %dB vs per-edge %dB: reduction %.2fx < 2.5x", sf, bf, ratio)
	}
}
