package core

import (
	"fmt"
	"math/rand/v2"
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
// scan over single R entries. Window by window it checks the scan against
// Algorithm 1's per-edge scan (perEdge) over every level up to the
// pattern length: the same distance and start location, a distance on
// every window (unrelated patterns included, since level mp always
// matches), and, on every fourth window, each edge query equal to the
// stored per-edge bit at every computed level, position and pattern bit.
// Those windows are first deepened by up to three levels above the
// distance with scroogeLevel, as tbBest deepens a terminal window, so the
// levels the scan stops short of are checked too. Windows are anchored,
// search-mode (the pattern cut from a random offset of the text) and
// terminal with phantom padding, under W = 64 and the multi-word W = 128.
func TestScroogeScanStopsAtDistance(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 3))
	for _, W := range []int{64, 128} {
		cfg := Config{WindowSize: W, Overlap: W * 3 / 8}
		w := mustWS(t, cfg)
		base := newPerEdge(cfg)

		var moved, edged, deepened int
		for trial := range 300 {
			text := randSeq(rng, W)
			mode := trial % 3
			search, pad := mode == 1, 0
			off := 0
			if search {
				off = rng.IntN(W / 4)
			}
			var pattern []byte
			switch {
			case trial%7 == 6:
				pattern = randSeq(rng, W) // unrelated: deep levels
			case trial%2 == 0:
				pattern = mutate(rng, text[off:], 2, 2, 2)
			default:
				pattern = mutate(rng, text[off:], 4, 0, 0)
			}
			mp := min(W, len(pattern))
			nt := W
			if mode == 2 {
				mp = W/2 + rng.IntN(W/2)
				pad = mp
				nt = min(W, mp-4+rng.IntN(8))
			}
			sub, pat := text[:nt], pattern[:mp]
			label := fmt.Sprintf("W=%d trial=%d search=%v pad=%d", W, trial, search, pad)

			res := w.dcWindow(sub, pat, search, pad)
			want := base.scan(sub, pat, search, pad)
			if res.dist < 0 || res != want {
				t.Fatalf("%s: (dist, loc) scan (%d, %d), per-edge (%d, %d)", label, res.dist, res.loc, want.dist, want.loc)
			}
			if res.loc > 0 {
				moved++
			}
			if trial%4 == 0 {
				// Every fourth window, which still draws all three
				// modes and unrelated patterns: the bit-by-bit check
				// costs more than the rest of the test.
				top := min(res.dist+3, mp)
				for d := res.dist + 1; d <= top; d++ {
					w.scroogeLevel(d, mp, nt+pad)
				}
				checkEdges(t, w, base, top, nt+pad, mp, label)
				edged++
				deepened += top - res.dist
			}
		}
		t.Logf("W=%d: %d search starts past 0, %d windows edge-checked over %d deepened levels", W, moved, edged, deepened)
		if moved == 0 || deepened == 0 {
			t.Fatalf("W=%d: uncovered case: %d search starts past 0, %d deepened levels", W, moved, deepened)
		}
	}
}
