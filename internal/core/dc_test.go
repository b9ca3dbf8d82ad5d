package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"genasm/internal/bitvec"
)

// checkEdges fails unless every edge query of w on the stored levels
// 0..levels equals the bit the paper's per-edge stores hold for the same
// entry: match, insertion and deletion read their own store, and
// substitution is deletion<<1. Positions cover the window's real and
// phantom text (npos), bits the window's pattern (mp).
func checkEdges(t *testing.T, w *Workspace, p *perEdge, levels, npos, mp int, label string) {
	t.Helper()
	for d := 0; d <= levels; d++ {
		for i := range npos {
			m, ins, del := p.entry(p.mStore, i, d), p.entry(p.iStore, i, d), p.entry(p.dStore, i, d)
			for j := range mp {
				if got, want := w.matchZero(i, d, j), bitvec.IsZeroBit(m, j); got != want {
					t.Fatalf("%s: match edge (level %d, position %d, bit %d): %v, per-edge store %v", label, d, i, j, got, want)
				}
				if d == 0 {
					continue
				}
				if got, want := w.insZero(i, d, j), bitvec.IsZeroBit(ins, j); got != want {
					t.Fatalf("%s: insertion edge (level %d, position %d, bit %d): %v, per-edge store %v", label, d, i, j, got, want)
				}
				if got, want := w.delZero(i, d, j), bitvec.IsZeroBit(del, j); got != want {
					t.Fatalf("%s: deletion edge (level %d, position %d, bit %d): %v, per-edge store %v", label, d, i, j, got, want)
				}
				if got, want := w.subZero(i, d, j), j == 0 || bitvec.IsZeroBit(del, j-1); got != want {
					t.Fatalf("%s: substitution edge (level %d, position %d, bit %d): %v, per-edge store %v", label, d, i, j, got, want)
				}
			}
		}
	}
}

// TestScroogeScanStopsAtDistance is the window oracle of the level-major
// scan over single R entries. Window by window it pins the stop rule —
// the adaptive scan computes exactly the window's distance (levels ==
// dist, or kMax when the budget fails), the non-adaptive one always
// computes kMax, with identical stored entries on every level the
// adaptive scan computed — and checks both against Algorithm 1's
// per-edge scan (perEdge): the same distance and start location and, on
// every fourth window, each edge query equal to the stored per-edge bit
// at every computed level, position and pattern bit. Windows are
// anchored, search-mode (the pattern cut from a random offset of the
// text) and terminal with phantom padding, under W = 64 and the
// multi-word W = 128, at the full error budget and a capped one.
func TestScroogeScanStopsAtDistance(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 3))
	for _, c := range []struct{ w, k int }{{64, 0}, {64, 6}, {128, 0}, {128, 12}} {
		cfg := Config{WindowSize: c.w, Overlap: c.w * 3 / 8, MaxWindowErrors: c.k}
		adaptive := mustWS(t, cfg)
		cfg.NoAdaptive = true
		full := mustWS(t, cfg)
		base := newPerEdge(cfg)

		var hits, misses, moved, edged int
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
			rb := base.scan(sub, pat, kMax, search, pad)
			if ra.dist != rb.dist || ra.loc != rb.loc || rf.dist != rb.dist || rf.loc != rb.loc {
				t.Fatalf("%s: (dist, loc) adaptive (%d, %d), full (%d, %d), per-edge (%d, %d)",
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
			if trial%4 == 0 {
				// Every fourth window, which still draws all three
				// modes and unrelated patterns: the bit-by-bit check
				// costs more than the rest of the test.
				checkEdges(t, adaptive, base, ra.levels, nt+pad, mp, label)
				edged++
			}
		}
		t.Logf("W=%d k=%d: %d windows matched, %d over budget, %d search starts past 0, %d edge-checked", c.w, c.k, hits, misses, moved, edged)
		if hits == 0 || moved == 0 || (c.k > 0 && misses == 0) {
			t.Fatalf("W=%d k=%d: uncovered case: %d matched, %d over budget, %d search starts past 0", c.w, c.k, hits, misses, moved)
		}
	}
}
