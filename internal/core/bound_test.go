package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"genasm/internal/cigar"
	"genasm/internal/dp"
)

// sameAlignment reports whether two alignments are identical in every
// field, CIGAR runs included.
func sameAlignment(a, b Alignment) bool {
	return a.Cigar.String() == b.Cigar.String() && a.Distance == b.Distance &&
		a.TextStart == b.TextStart && a.TextEnd == b.TextEnd && a.Windows == b.Windows
}

// checkBound checks the distance-bound contract of one bounded call
// against the unbounded result want (err its error): within the bound the
// result is exactly want, past it the call returns the bare
// ErrDistanceBound. When the unbounded call fails, the bounded call must
// fail too, with the same error or by crossing the bound first.
func checkBound(t *testing.T, got Alignment, gotErr error, want Alignment, wantErr error, maxDist int, label string) {
	t.Helper()
	switch {
	case wantErr != nil:
		if gotErr == nil || (gotErr.Error() != wantErr.Error() && gotErr != ErrDistanceBound) {
			t.Fatalf("%s maxDist=%d: unbounded error %v, bounded %v", label, maxDist, wantErr, gotErr)
		}
	case maxDist < 0 || want.Distance <= maxDist:
		if gotErr != nil {
			t.Fatalf("%s maxDist=%d: distance %d within bound, got %v", label, maxDist, want.Distance, gotErr)
		}
		if !sameAlignment(got, want) {
			t.Fatalf("%s maxDist=%d: bounded %+v (%s) vs unbounded %+v (%s)", label, maxDist, got, got.Cigar, want, want.Cigar)
		}
	default:
		if gotErr != ErrDistanceBound {
			t.Fatalf("%s maxDist=%d: distance %d past bound, got %v (distance %d)", label, maxDist, want.Distance, gotErr, got.Distance)
		}
	}
}

// TestDistanceBoundContract pins the bounded alignment loop on both
// kernels across sweepConfigs, in semi-global and global mode: at bounds
// -1, 0, d-1, d, d+1 and 4d (d the unbounded distance) the result is the
// unbounded alignment exactly when d is within the bound and
// ErrDistanceBound otherwise. The bounded workspace runs the aborting
// bounds last, so each trial's unbounded call follows the previous
// trial's aborted ones and must still equal a fresh workspace's result.
func TestDistanceBoundContract(t *testing.T) {
	for ci, c := range sweepConfigs() {
		t.Run(c.name, func(t *testing.T) {
			for _, kern := range []Kernel{KernelScrooge, KernelBaseline} {
				cfg := c.cfg
				cfg.Kernel = kern
				ws := mustWS(t, cfg)
				size := alphabetSize(cfg)
				rng := rand.New(rand.NewPCG(18, uint64(ci)))
				for trial := 0; trial < 25; trial++ {
					text, pattern := sweepPair(rng, size, trial)
					global := trial%2 == 0
					label := fmt.Sprintf("%s kernel=%s trial %d global=%v", c.name, kern, trial, global)
					want, wantErr := mustWS(t, cfg).align(text, pattern, global, -1)
					want = want.Clone()
					d := want.Distance
					for _, maxDist := range []int{-1, d, d + 1, 4 * d, 0, d - 1} {
						got, err := ws.align(text, pattern, global, maxDist)
						checkBound(t, got, err, want, wantErr, maxDist, label)
					}
					if t.Failed() {
						t.Logf("text=%v pattern=%v", text, pattern)
						return
					}
				}
			}
		})
	}
}

// windowCounter is a context whose Err counts the align loop's
// once-per-window polls.
type windowCounter struct {
	context.Context
	polls int
}

func (c *windowCounter) Err() error {
	c.polls++
	return nil
}

// TestAlignWithinStopsEarly checks that a candidate far past the bound is
// rejected after a few windows: an unrelated 2 kbp pair commits a couple
// of dozen edits per window, so a bound of 40 is crossed within the first
// few of the ~50 windows a full alignment runs.
func TestAlignWithinStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 1))
	text, pattern := randSeq(rng, 2100), randSeq(rng, 2000)
	ws := mustWS(t, Config{FindFirstWindowStart: true})
	wc := &windowCounter{Context: context.Background()}
	ws.SetContext(wc)
	full, err := ws.Align(text, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if full.Distance <= 40 || wc.polls != full.Windows {
		t.Fatalf("unrelated pair: distance %d, %d polls for %d windows", full.Distance, wc.polls, full.Windows)
	}
	wc.polls = 0
	if _, err := ws.AlignWithin(text, pattern, 40); err != ErrDistanceBound {
		t.Fatalf("AlignWithin(40) = %v, want ErrDistanceBound", err)
	}
	if wc.polls > 4 {
		t.Fatalf("bounded call ran %d of %d windows, want at most 4", wc.polls, full.Windows)
	}
}

// FuzzAlign checks the GenASM pipeline against the dp oracle over window
// geometry, traceback order, search mode, kernel and distance bound.
// Input bytes map to DNA codes by their low two bits. For every input the
// unbounded alignment's CIGAR must consume the whole pattern and exactly
// TextEnd-TextStart text letters, its edit count must equal Distance,
// Distance must be at least the dp semi-global (fit) optimum, and
// TextStart must lie in the text; the bounded call must obey the
// AlignWithin contract; the workspace that ran the bounded call must then
// align exactly as a fresh one; and the other kernel must return the same
// Distance, CIGAR, TextStart and TextEnd, which puts the single-word fast
// walker against the baseline's generic one.
func FuzzAlign(f *testing.F) {
	f.Fuzz(func(t *testing.T, textIn, patternIn []byte, win, ov, mode uint8, maxDistIn int16) {
		if len(patternIn) == 0 || len(patternIn) > 512 || len(textIn) > 1024 {
			return
		}
		text := make([]byte, len(textIn))
		for i, b := range textIn {
			text[i] = b & 3
		}
		pattern := make([]byte, len(patternIn))
		for i, b := range patternIn {
			pattern[i] = b & 3
		}
		W := 2 + int(win)%127
		cfg := Config{
			WindowSize:           W,
			Overlap:              int(ov) % W,
			Order:                Order(mode % 3),
			FindFirstWindowStart: mode&4 != 0,
		}
		if mode&8 != 0 {
			cfg.Kernel = KernelBaseline
		}
		maxDist := int(maxDistIn)
		if maxDist >= 0 {
			maxDist %= 2*len(pattern) + 2
		}

		ws, err := New(cfg)
		if err != nil {
			return // overlap 0 takes the default 24, invalid below W = 25
		}
		got, gotErr := ws.AlignWithin(text, pattern, maxDist)
		got = got.Clone()
		want, err := ws.Align(text, pattern)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		fresh, err := mustWS(t, cfg).Align(text, pattern)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAlignment(want, fresh) {
			t.Fatalf("%+v: after AlignWithin(%d) the workspace aligned %+v (%s), a fresh one %+v (%s)",
				cfg, maxDist, want, want.Cigar, fresh, fresh.Cigar)
		}
		checkBound(t, got, gotErr, want, nil, maxDist, fmt.Sprintf("%+v", cfg))

		otherCfg := cfg
		otherCfg.Kernel = KernelBaseline + KernelScrooge - cfg.Kernel
		other, err := mustWS(t, otherCfg).Align(text, pattern)
		if err != nil {
			t.Fatalf("%+v: %v", otherCfg, err)
		}
		if other.Distance != want.Distance || other.Cigar.String() != want.Cigar.String() ||
			other.TextStart != want.TextStart || other.TextEnd != want.TextEnd {
			t.Fatalf("%+v: kernels disagree: %s d=%d [%d, %d) vs %s kernel %s d=%d [%d, %d)",
				cfg, want.Cigar, want.Distance, want.TextStart, want.TextEnd,
				otherCfg.Kernel, other.Cigar, other.Distance, other.TextStart, other.TextEnd)
		}

		if q := want.Cigar.QueryLen(); q != len(pattern) {
			t.Fatalf("%+v: CIGAR %s consumes %d of %d pattern letters", cfg, want.Cigar, q, len(pattern))
		}
		if want.TextStart < 0 || want.TextStart > want.TextEnd || want.TextEnd > len(text) {
			t.Fatalf("%+v: text span [%d, %d) outside [0, %d]", cfg, want.TextStart, want.TextEnd, len(text))
		}
		if tl := want.Cigar.TextLen(); tl != want.TextEnd-want.TextStart {
			t.Fatalf("%+v: CIGAR %s consumes %d text letters, span is [%d, %d)", cfg, want.Cigar, tl, want.TextStart, want.TextEnd)
		}
		if e := want.Cigar.EditDistance(); e != want.Distance {
			t.Fatalf("%+v: CIGAR has %d edits, Distance %d", cfg, e, want.Distance)
		}
		if opt := -dp.Align(text, pattern, cigar.Unit, dp.Fit, 0).Score; want.Distance < opt {
			t.Fatalf("%+v: distance %d below the dp optimum %d", cfg, want.Distance, opt)
		}
	})
}

// BenchmarkAlignWithin is the unit-level view of the mapper's distance
// bound: a 10 kbp read at 10% error aligned in the mapper's geometry (16
// leading and maxEdits+16 trailing bases, search-mode first window)
// against its true region and against an unrelated one, with no bound
// and with the mapper's acceptance bound 2*maxEdits+8.
func BenchmarkAlignWithin(b *testing.B) {
	const readLen = 10_000
	maxEdits := readLen/10 + 4
	bound := 2*maxEdits + 8
	rng := rand.New(rand.NewPCG(18, 10))
	regionLen := 16 + readLen + maxEdits + 16
	trueRegion := randSeq(rng, regionLen)
	read := mutate(rng, trueRegion[16:16+readLen], 500, 250, 250)
	regions := []struct {
		name   string
		region []byte
	}{
		{"true", trueRegion},
		{"unrelated", randSeq(rng, regionLen)},
	}
	ws := mustWS(b, Config{FindFirstWindowStart: true})
	for _, r := range regions {
		for _, maxDist := range []int{-1, bound} {
			name := fmt.Sprintf("%s/unbounded", r.name)
			if maxDist >= 0 {
				name = fmt.Sprintf("%s/bound=%d", r.name, maxDist)
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					if _, err := ws.AlignWithin(r.region, read, maxDist); err != nil && err != ErrDistanceBound {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
