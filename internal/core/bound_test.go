package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"genasm/internal/myers"
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
// walkers across sweepConfigs, in semi-global and global mode (semi-global
// trials of a search case search the first window): at bounds
// -1, 0, d-1, d, d+1 and 4d (d the unbounded distance) the result is the
// unbounded alignment exactly when d is within the bound and
// ErrDistanceBound otherwise. The bounded workspace runs the aborting
// bounds last, so each trial's unbounded call follows the previous
// trial's aborted ones and must still equal a fresh workspace's result.
// Multi-word configs have only the generic walker and run once.
func TestDistanceBoundContract(t *testing.T) {
	for ci, c := range sweepConfigs() {
		t.Run(c.name, func(t *testing.T) {
			for _, generic := range []bool{false, true} {
				newWS := func() *Workspace {
					w := mustWS(t, c.cfg)
					w.fast = w.fast && !generic
					return w
				}
				ws := newWS()
				if generic && ws.nw > 1 {
					continue
				}
				size := alphabetSize(c.cfg)
				rng := rand.New(rand.NewPCG(18, uint64(ci)))
				for trial := 0; trial < 25; trial++ {
					text, pattern := sweepPair(rng, size, trial, c.k)
					global := trial%2 == 0
					search := c.search && !global
					label := fmt.Sprintf("%s generic=%v trial %d global=%v", c.name, generic, trial, global)
					want, wantErr := newWS().align(text, pattern, global, search, -1)
					want = want.Clone()
					d := want.Distance
					for _, maxDist := range []int{-1, d, d + 1, 4 * d, 0, d - 1} {
						got, err := ws.align(text, pattern, global, search, maxDist)
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

// TestAlignRegionStopsEarly checks that a candidate far past the bound is
// rejected after a few windows: an unrelated 2 kbp pair commits a couple
// of dozen edits per window, so a bound of 40 is crossed within the first
// few of the ~50 windows a full alignment runs.
func TestAlignRegionStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 1))
	text, pattern := randSeq(rng, 2100), randSeq(rng, 2000)
	ws := mustWS(t, Config{})
	wc := &windowCounter{Context: context.Background()}
	ws.SetContext(wc)
	full, err := ws.AlignRegion(text, pattern, -1)
	if err != nil {
		t.Fatal(err)
	}
	if full.Distance <= 40 || wc.polls != full.Windows {
		t.Fatalf("unrelated pair: distance %d, %d polls for %d windows", full.Distance, wc.polls, full.Windows)
	}
	wc.polls = 0
	if _, err := ws.AlignRegion(text, pattern, 40); err != ErrDistanceBound {
		t.Fatalf("AlignRegion(40) = %v, want ErrDistanceBound", err)
	}
	if wc.polls > 4 {
		t.Fatalf("bounded call ran %d of %d windows, want at most 4", wc.polls, full.Windows)
	}
}

// FuzzAlign checks the GenASM pipeline against an oracle over window
// geometry, traceback order, search mode and distance bound. Input bytes
// map to DNA codes by their low two bits; mode picks the order (mode%3)
// and search (mode&4), which is passed per call to align, so anchored and
// search-mode alignments run bounded and unbounded. For every input the
// unbounded alignment's CIGAR must consume the whole pattern and exactly
// TextEnd-TextStart text letters, its edit count must equal Distance,
// Distance must be at least the semi-global (fit) optimum, which
// myers.SemiGlobal computes in O(nm/64) (its tests pin it against the dp
// oracle, which took most of an input's time here), and
// TextStart must lie in the text; the bounded call must obey the
// distance-bound contract of AlignRegion; and the workspace that ran it,
// reused across inputs of the same configuration, must then align exactly
// as a fresh workspace running the generic walker, which puts the
// single-word fast walker against the generic one.
func FuzzAlign(f *testing.F) {
	// Reusing one workspace per configuration keeps an input's cost to
	// the alignments themselves; the cache is bounded because every
	// geometry the fuzzer draws is a new configuration.
	reused := map[Config]*Workspace{}
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
			WindowSize: W,
			Overlap:    int(ov) % W,
			Order:      Order(mode % 3),
		}
		search := mode&4 != 0
		label := fmt.Sprintf("%+v search=%v", cfg, search)
		maxDist := int(maxDistIn)
		if maxDist >= 0 {
			maxDist %= 2*len(pattern) + 2
		}

		ws := reused[cfg]
		if ws == nil {
			var err error
			if ws, err = New(cfg); err != nil {
				return // overlap 0 takes the default 24, invalid below W = 25
			}
			if len(reused) >= 64 {
				clear(reused)
			}
			reused[cfg] = ws
		}
		got, gotErr := ws.align(text, pattern, false, search, maxDist)
		got = got.Clone()
		want, err := ws.align(text, pattern, false, search, -1)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		generic := mustWS(t, cfg)
		generic.fast = false
		other, err := generic.align(text, pattern, false, search, -1)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAlignment(want, other) {
			t.Fatalf("%s: after the bounded call (%d) the reused workspace (fast=%v) aligned %+v (%s), a fresh generic-walker one %+v (%s)",
				label, maxDist, ws.fast, want, want.Cigar, other, other.Cigar)
		}
		checkBound(t, got, gotErr, want, nil, maxDist, label)

		if q := want.Cigar.QueryLen(); q != len(pattern) {
			t.Fatalf("%s: CIGAR %s consumes %d of %d pattern letters", label, want.Cigar, q, len(pattern))
		}
		if want.TextStart < 0 || want.TextStart > want.TextEnd || want.TextEnd > len(text) {
			t.Fatalf("%s: text span [%d, %d) outside [0, %d]", label, want.TextStart, want.TextEnd, len(text))
		}
		if tl := want.Cigar.TextLen(); tl != want.TextEnd-want.TextStart {
			t.Fatalf("%s: CIGAR %s consumes %d text letters, span is [%d, %d)", label, want.Cigar, tl, want.TextStart, want.TextEnd)
		}
		if e := want.Cigar.EditDistance(); e != want.Distance {
			t.Fatalf("%s: CIGAR has %d edits, Distance %d", label, e, want.Distance)
		}
		opt, _, err := myers.SemiGlobal(text, pattern, 4)
		if err != nil {
			t.Fatal(err)
		}
		if want.Distance < opt {
			t.Fatalf("%s: distance %d below the semi-global optimum %d", label, want.Distance, opt)
		}
	})
}

// BenchmarkAlignRegion is the unit-level view of the mapper's distance
// bound: a 10 kbp read at 10% error aligned in the mapper's geometry (16
// leading and maxEdits+16 trailing bases, search-mode first window)
// against its true region and against an unrelated one, with no bound
// and with the mapper's acceptance bound 2*maxEdits+8.
func BenchmarkAlignRegion(b *testing.B) {
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
	ws := mustWS(b, Config{})
	for _, r := range regions {
		for _, maxDist := range []int{-1, bound} {
			name := fmt.Sprintf("%s/unbounded", r.name)
			if maxDist >= 0 {
				name = fmt.Sprintf("%s/bound=%d", r.name, maxDist)
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					if _, err := ws.AlignRegion(r.region, read, maxDist); err != nil && err != ErrDistanceBound {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
