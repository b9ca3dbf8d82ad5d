package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"genasm/internal/cigar"
)

// stepTBWindowFast is the single-word Scrooge traceback as it was before
// match runs, kept as a test-only oracle: it decides every step on its
// own, matches included, under w.cfg.Order.
func stepTBWindowFast(w *Workspace, mp, nt, pad, startLoc, dist int, final bool, b *cigar.Builder) tbResult {
	patternI := mp - 1
	textI := startLoc
	curError := dist
	limit := w.cfg.WindowSize - w.cfg.Overlap
	prev := cigar.OpNone
	affine := !w.cfg.NoAffineExtend
	order := w.cfg.Order
	npos := w.npos
	store := w.rStore
	pm := w.scanPM
	end := nt + pad

	runOp := cigar.OpNone
	runLen := 0

	var res tbResult
	for patternI >= 0 && textI < end {
		if !final && (res.patternConsumed >= limit || res.textConsumed >= limit) {
			break
		}
		j := uint(patternI)
		// entry (level, position) is store[level*npos+position].
		base := textI
		next := base + 1

		status := cigar.OpNone
		if affine && curError > 0 {
			if prev == cigar.OpIns {
				if j == 0 || store[(curError-1)*npos+base]>>(j-1)&1 == 0 {
					status = cigar.OpIns
				}
			} else if prev == cigar.OpDel {
				if store[(curError-1)*npos+next]>>j&1 == 0 {
					status = cigar.OpDel
				}
			}
		}
		if status == cigar.OpNone && pm[textI]>>j&1 == 0 &&
			(j == 0 || store[curError*npos+next]>>(j-1)&1 == 0) {
			status = cigar.OpMatch
		}
		if status == cigar.OpNone && curError > 0 {
			e := (curError - 1) * npos
			delV := store[e+next]>>j&1 == 0
			subV := j == 0 || store[e+next]>>(j-1)&1 == 0
			insV := j == 0 || store[e+base]>>(j-1)&1 == 0
			switch order {
			case OrderGapFirst:
				if insV {
					status = cigar.OpIns
				} else if delV {
					status = cigar.OpDel
				} else if subV {
					status = cigar.OpSubst
				}
			case OrderDelFirst:
				if delV {
					status = cigar.OpDel
				} else if subV {
					status = cigar.OpSubst
				} else if insV {
					status = cigar.OpIns
				}
			default:
				if subV {
					status = cigar.OpSubst
				} else if insV {
					status = cigar.OpIns
				} else if delV {
					status = cigar.OpDel
				}
			}
			if !res.orderSensitive {
				n := 0
				if delV {
					n++
				}
				if subV {
					n++
				}
				if insV {
					n++
				}
				res.orderSensitive = n > 1
			}
		}
		if status == cigar.OpNone {
			break
		}

		if textI >= nt {
			switch status {
			case cigar.OpSubst:
				textI++
				fallthrough
			case cigar.OpIns:
				if runOp == cigar.OpIns {
					runLen++
				} else {
					if runLen > 0 {
						b.Append(runOp, runLen)
					}
					runOp, runLen = cigar.OpIns, 1
				}
				prev = cigar.OpIns
				curError--
				res.errorsUsed++
				patternI--
				res.patternConsumed++
			case cigar.OpDel:
				prev = cigar.OpDel
				curError--
				res.errorsUsed++
				textI++
			}
			continue
		}

		if status == runOp {
			runLen++
		} else {
			if runLen > 0 {
				b.Append(runOp, runLen)
			}
			runOp, runLen = status, 1
		}
		prev = status
		if status != cigar.OpMatch {
			curError--
			res.errorsUsed++
		}
		if status.ConsumesText() {
			textI++
			res.textConsumed++
		}
		if status.ConsumesQuery() {
			patternI--
			res.patternConsumed++
		}
	}
	if runLen > 0 {
		b.Append(runOp, runLen)
	}
	return res
}

// threeWalkTBSelect is the single-word tbSelect as it was before forked
// order selection, kept as a test-only oracle: every order walks the
// window from its start with stepTBWindowFast, and the cheapest walk wins,
// the earlier order on equal cost.
func threeWalkTBSelect(w *Workspace, mp, nt, pad, loc, dist int, final bool, b *cigar.Builder) tbResult {
	savedOrder := w.cfg.Order
	defer func() { w.cfg.Order = savedOrder }()
	orders := [...]Order{savedOrder, OrderDelFirst, OrderGapFirst, OrderSubFirst}

	var scratch cigar.Builder
	var bestOps cigar.Cigar
	var (
		bestRes  tbResult
		haveBest bool
	)
	for oi, o := range orders {
		if oi > 0 && o == savedOrder {
			continue
		}
		w.cfg.Order = o
		scratch.Reset()
		r := stepTBWindowFast(w, mp, nt, pad, loc, dist, final, &scratch)
		if !haveBest || selectCost(r) < selectCost(bestRes) {
			haveBest = true
			bestRes = r
			bestOps = scratch.Cigar().CloneInto(bestOps)
		}
		if oi == 0 && !r.orderSensitive {
			break
		}
	}
	b.AppendCigar(bestOps)
	return bestRes
}

// sameTB reports whether two walks consumed the same window with the same
// number of errors.
func sameTB(a, b tbResult) bool {
	return a.patternConsumed == b.patternConsumed && a.textConsumed == b.textConsumed &&
		a.errorsUsed == b.errorsUsed
}

// TestTracebackMatchesStepOracle pins the run-based single-word traceback
// and the forked order selection against the per-step, three-walk
// oracles above, window by window. Windows come from random texts (a
// third of them over two letters) with 10% indel-heavy or 5%
// substitution-heavy copies, or unrelated sequences, as patterns, under
// every order with affine extension on and off, as non-final (capped)
// windows and as final ones with and without phantom padding (padded
// ones also walked at eight levels above the minimum, as tbBest walks
// them). Each single walk, under every order, and each selection must
// consume the same counts with the same errors and emit the same CIGAR.
// The cases forked selection distinguishes must all occur: an order whose
// walk equals the first one (skipped), one resumed from a fork, and a
// later order winning the window.
func TestTracebackMatchesStepOracle(t *testing.T) {
	const W = DefaultWindowSize
	rng := rand.New(rand.NewPCG(24, 7))
	var windows, skipped, resumed, laterWon int
	for _, order := range []Order{OrderSubFirst, OrderGapFirst, OrderDelFirst} {
		for _, noAffine := range []bool{false, true} {
			w := mustWS(t, Config{Order: order, NoAffineExtend: noAffine})
			for trial := range 400 {
				text := randSeq(rng, 2*W)
				if trial%3 == 0 {
					// Low-complexity text: coincidental matches next to
					// indels, where a run must stop on the R test alone.
					for i := range text {
						text[i] &= 1
					}
				}
				var pattern []byte
				switch {
				case trial%5 == 4:
					pattern = randSeq(rng, W) // unrelated: deep error levels
				case trial%2 == 0:
					pattern = mutate(rng, text[:W], 2, 2, 2) // 10%, indel-heavy
				default:
					pattern = mutate(rng, text[:W], 3, 0, 0) // 5%, substitutions
				}
				final := trial%4 >= 2
				pad := 0
				mp, nt := min(W, len(pattern)), W
				if final {
					// A final window takes the pattern's remainder; a
					// padded one is terminal, with the text's too.
					mp = W/2 + rng.IntN(W/2)
					if trial%4 == 3 {
						pad = mp
						nt = min(W, mp-4+rng.IntN(8))
					}
				}
				sub, pat := text[:nt], pattern[:mp]
				res := w.dcWindow(sub, pat, false, pad)
				if res.dist < 0 {
					continue
				}
				windows++
				label := fmt.Sprintf("order=%d noAffine=%v trial=%d final=%v pad=%d", order, noAffine, trial, final, pad)

				var got, want cigar.Builder
				// Terminal windows are also walked above the DC minimum,
				// as tbBest walks them: the scan stopped at the minimum,
				// so the rows above it are added here, up to tbBest's cap.
				maxD := res.dist
				if pad > 0 {
					maxD = min(w.cfg.MaxWindowErrors, max(mp, nt), res.dist+8)
					for d := res.levels + 1; d <= maxD; d++ {
						w.scroogeLevel(d, mp, nt+pad)
					}
				}
				for d := res.dist; d <= maxD; d++ {
					for _, o := range []Order{OrderSubFirst, OrderGapFirst, OrderDelFirst} {
						got.Reset()
						want.Reset()
						st := tbState{patternI: mp - 1, textI: res.loc, curError: d}
						g := w.tbWindowFast(st, nt, pad, final, o, cigar.OpNone, false, &got)
						w.cfg.Order = o
						wr := stepTBWindowFast(w, mp, nt, pad, res.loc, d, final, &want)
						w.cfg.Order = order
						if !sameTB(g, wr) || g.orderSensitive != wr.orderSensitive || got.Cigar().String() != want.Cigar().String() {
							t.Fatalf("%s walk d=%d order=%d: got %+v %s, oracle %+v %s", label, d, o, g, got.Cigar(), wr, want.Cigar())
						}
					}
				}

				var first cigar.Builder
				firstRes := stepTBWindowFast(w, mp, nt, pad, res.loc, res.dist, final, &first)
				got.Reset()
				want.Reset()
				g := w.tbSelect(mp, nt, pad, res.loc, res.dist, final, &got)
				wr := threeWalkTBSelect(w, mp, nt, pad, res.loc, res.dist, final, &want)
				if !sameTB(g, wr) || got.Cigar().String() != want.Cigar().String() {
					t.Fatalf("%s select: got %+v %s, oracle %+v %s", label, g, got.Cigar(), wr, want.Cigar())
				}
				if len(w.tbForks) > 0 {
					for _, o := range []Order{OrderDelFirst, OrderGapFirst, OrderSubFirst} {
						if o == order {
							continue
						}
						diverges := false
						for _, f := range w.tbForks {
							if pickViable(o, f.viable) != f.chosen {
								diverges = true
								break
							}
						}
						if diverges {
							resumed++
						} else {
							skipped++
						}
					}
				}
				if !sameTB(firstRes, wr) || first.Cigar().String() != want.Cigar().String() {
					laterWon++
				}
			}
		}
	}
	t.Logf("%d windows: %d replays skipped, %d resumed, a later order won %d", windows, skipped, resumed, laterWon)
	if skipped == 0 || resumed == 0 || laterWon == 0 {
		t.Fatalf("uncovered case: %d replays skipped, %d resumed, a later order won %d windows", skipped, resumed, laterWon)
	}
}
