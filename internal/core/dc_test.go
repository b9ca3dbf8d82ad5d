package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestScroogeScanStopsAtDistance pins the level-major Scrooge scan's stop
// rule window by window: the adaptive scan computes exactly the window's
// distance (levels == dist, or kMax when the budget fails), the
// non-adaptive one always computes kMax, and both report the baseline's
// distance and start location, with identical stored entries on every
// level the adaptive scan computed. Windows are anchored, search-mode
// (the pattern cut from a random offset of the text) and terminal with
// phantom padding, under W = 64 and the multi-word W = 128, at the full
// error budget and a capped one.
func TestScroogeScanStopsAtDistance(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 3))
	for _, c := range []struct{ w, k int }{{64, 0}, {64, 6}, {128, 0}, {128, 12}} {
		cfg := Config{WindowSize: c.w, Overlap: c.w * 3 / 8, MaxWindowErrors: c.k}
		adaptive := mustWS(t, cfg)
		cfg.NoAdaptive = true
		full := mustWS(t, cfg)
		cfg.Kernel = KernelBaseline
		base := mustWS(t, cfg)

		var hits, misses, moved int
		for trial := range 300 {
			text := randSeq(rng, c.w)
			mode := trial % 3
			search, pad := mode == 1, 0
			off := 0
			if search {
				off = rng.IntN(c.w / 4)
			}
			var pattern []byte
			switch {
			case trial%7 == 6:
				pattern = randSeq(rng, c.w) // unrelated: deep levels, budget failures
			case trial%2 == 0:
				pattern = mutate(rng, text[off:], 2, 2, 2)
			default:
				pattern = mutate(rng, text[off:], 4, 0, 0)
			}
			mp := min(c.w, len(pattern))
			nt := c.w
			if mode == 2 {
				mp = c.w/2 + rng.IntN(c.w/2)
				pad = mp
				nt = min(c.w, mp-4+rng.IntN(8))
			}
			sub, pat := text[:nt], pattern[:mp]
			kMax := min(adaptive.Config().MaxWindowErrors, mp)
			label := fmt.Sprintf("W=%d k=%d trial=%d search=%v pad=%d", c.w, c.k, trial, search, pad)

			ra := adaptive.dcWindow(sub, pat, search, pad)
			rf := full.dcWindow(sub, pat, search, pad)
			rb := base.dcWindow(sub, pat, search, pad)
			if ra.dist != rb.dist || ra.loc != rb.loc || rf.dist != rb.dist || rf.loc != rb.loc {
				t.Fatalf("%s: (dist, loc) adaptive (%d, %d), full (%d, %d), baseline (%d, %d)",
					label, ra.dist, ra.loc, rf.dist, rf.loc, rb.dist, rb.loc)
			}
			wantLevels := ra.dist
			if ra.dist < 0 {
				wantLevels = kMax
				misses++
			} else {
				hits++
			}
			if ra.loc > 0 {
				moved++
			}
			if ra.levels != wantLevels || rf.levels != kMax {
				t.Fatalf("%s: dist %d, kMax %d: adaptive computed %d levels, full %d", label, ra.dist, kMax, ra.levels, rf.levels)
			}
			for d := 0; d <= ra.levels; d++ {
				for i := 0; i <= nt+pad; i++ {
					if !slices.Equal(adaptive.rEntry(i, d), full.rEntry(i, d)) {
						t.Fatalf("%s: entry (level %d, position %d) differs: adaptive %x, full %x",
							label, d, i, adaptive.rEntry(i, d), full.rEntry(i, d))
					}
				}
			}
		}
		t.Logf("W=%d k=%d: %d windows matched, %d over budget, %d search starts past 0", c.w, c.k, hits, misses, moved)
		if hits == 0 || moved == 0 || (c.k > 0 && misses == 0) {
			t.Fatalf("W=%d k=%d: uncovered case: %d matched, %d over budget, %d search starts past 0", c.w, c.k, hits, misses, moved)
		}
	}
}
