package core

import "genasm/internal/cigar"

// tbResult reports how much of a window the traceback consumed.
type tbResult struct {
	patternConsumed int
	textConsumed    int
	errorsUsed      int
	// orderSensitive reports whether any error decision of the walk had
	// more than one viable edge: when false, every step was forced, so
	// the walk is identical under all three error orders and tbSelect/
	// tbBest skip the redundant order walks.
	orderSensitive bool
}

// tbState is the single-word walker's state between two steps: the
// position in the window, the error level, the previous op, the run not
// yet flushed to the builder and the consumption so far.
type tbState struct {
	patternI, textI, curError int
	prev, runOp               cigar.Op
	runLen                    int
	res                       tbResult
}

// tbFork is one order-sensitive step of a recorded walk: the state just
// before the step, the number of runs the walk had flushed by then, the
// error edges viable there and the op the walk took. A walk under
// another order is identical up to the first fork where that order picks
// a different op, so tbSelectFast resumes it there.
type tbFork struct {
	tbState
	flushed int
	viable  uint8 // viableDel | viableSub | viableIns
	chosen  cigar.Op
}

// Viable-edge bits of an error decision.
const (
	viableDel uint8 = 1 << iota
	viableSub
	viableIns
)

// pickViable is pickError over a viable-edge mask: the first viable
// error case in the order's priority, OpNone when none is viable.
func pickViable(order Order, viable uint8) cigar.Op {
	del, sub, ins := viable&viableDel != 0, viable&viableSub != 0, viable&viableIns != 0
	switch order {
	case OrderGapFirst:
		if ins {
			return cigar.OpIns
		}
		if del {
			return cigar.OpDel
		}
		if sub {
			return cigar.OpSubst
		}
	case OrderDelFirst:
		if del {
			return cigar.OpDel
		}
		if sub {
			return cigar.OpSubst
		}
		if ins {
			return cigar.OpIns
		}
	default: // OrderSubFirst, Algorithm 2 as printed
		if sub {
			return cigar.OpSubst
		}
		if ins {
			return cigar.OpIns
		}
		if del {
			return cigar.OpDel
		}
	}
	return cigar.OpNone
}

// tbWindow is GenASM-TB over one window (Algorithm 2 lines 6-30). It walks
// forward through the stored bitvectors starting at text position startLoc
// with patternI at the MSB, following a chain of 0s and emitting one CIGAR
// operation per step:
//
//   - match: both characters consumed, error count unchanged;
//   - substitution (derived as deletion<<1): both consumed, one error;
//   - insertion: pattern character consumed only, one error;
//   - deletion: text character consumed only, one error.
//
// For non-final windows, consumption is capped at W-O characters on both
// sides so consecutive windows overlap by O characters (Algorithm 2
// line 11). The final pattern window runs until the pattern or the text is
// exhausted.
//
// pad phantom positions (matching dcWindow's pad) extend the walk past the
// real text end. A phantom position holds no real character, so any op the
// bitvectors offer there is re-expressed as what it really is: a phantom
// substitution consumes the pattern character for one error — an insertion
// — and a phantom deletion consumes nothing for one error (a wasted move
// that minimal paths avoid). Phantom moves never count as consumed text.
func (w *Workspace) tbWindow(mp, nt, pad, startLoc, dist int, final bool, b *cigar.Builder) tbResult {
	if w.cfg.Kernel == KernelScrooge && w.nw == 1 {
		st := tbState{patternI: mp - 1, textI: startLoc, curError: dist}
		return w.tbWindowFast(st, nt, pad, final, w.cfg.Order, cigar.OpNone, false, b)
	}
	patternI := mp - 1
	textI := startLoc
	curError := dist
	limit := w.cfg.WindowSize - w.cfg.Overlap
	prev := cigar.OpNone
	affine := !w.cfg.NoAffineExtend

	var res tbResult
	for {
		if patternI < 0 || textI >= nt+pad {
			break
		}
		if !final && (res.patternConsumed >= limit || res.textConsumed >= limit) {
			break
		}

		status := cigar.OpNone
		// Gap-extend priority (Algorithm 2 lines 13-16): if the previous
		// operation opened a gap and the same gap can continue, extend it,
		// mimicking the affine gap penalty model.
		if affine && curError > 0 {
			if prev == cigar.OpIns && w.insZero(textI, curError, patternI) {
				status = cigar.OpIns
			} else if prev == cigar.OpDel && w.delZero(textI, curError, patternI) {
				status = cigar.OpDel
			}
		}
		if status == cigar.OpNone && w.matchZero(textI, curError, patternI) {
			status = cigar.OpMatch
		}
		if status == cigar.OpNone && curError > 0 {
			status = w.pickError(textI, curError, patternI)
			if status != cigar.OpNone && !res.orderSensitive {
				n := 0
				if w.delZero(textI, curError, patternI) {
					n++
				}
				if w.subZero(textI, curError, patternI) {
					n++
				}
				if w.insZero(textI, curError, patternI) {
					n++
				}
				res.orderSensitive = n > 1
			}
		}
		if status == cigar.OpNone {
			// Unreachable when dist came from dcWindow: R[d] being 0 at
			// the current bit guarantees one of the four cases is 0.
			break
		}

		if textI >= nt {
			// Phantom region: re-express the op (see doc comment). A
			// phantom match is impossible: the sentinel mask matches
			// nothing, so the match bitvector is all ones there.
			switch status {
			case cigar.OpSubst:
				b.Add(cigar.OpIns)
				prev = cigar.OpIns
				curError--
				res.errorsUsed++
				textI++
				patternI--
				res.patternConsumed++
			case cigar.OpIns:
				b.Add(cigar.OpIns)
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

		b.Add(status)
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
	return res
}

// tbWindowFast is tbWindow specialized for the Scrooge kernel's
// single-word layout (W <= 64, the default configuration): every edge
// query is an inline shift of a directly-indexed rStore word (a match
// run reads one level's consecutive words) and the match bitmask is one
// read of the scanPM cache, eliminating the per-step function calls and
// slice-header construction of the generic walker. Behaviour is identical by construction — each branch mirrors
// the corresponding matchZero/insZero/delZero/subZero derivation — and
// pinned by the kernel differential tests and the per-step oracle in
// tb_oracle_test.go.
//
// The walk starts from st under the given error order. A match run is
// consumed in one loop: once no gap can be extended, a step is a match
// exactly when the match edge is 0, and after a match no gap can be
// extended, so the run needs only the match test per step. A non-None
// force is taken as the first step's op instead of deciding it (a fork
// resumed under another order, see tbSelectFast). With record set, every
// order-sensitive step is appended to w.tbForks.
func (w *Workspace) tbWindowFast(st tbState, nt, pad int, final bool, order Order, force cigar.Op, record bool, b *cigar.Builder) tbResult {
	patternI, textI, curError := st.patternI, st.textI, st.curError
	prev, runOp, runLen, res := st.prev, st.runOp, st.runLen, st.res
	limit := w.cfg.WindowSize - w.cfg.Overlap
	affine := !w.cfg.NoAffineExtend
	npos := w.npos
	store := w.rStore
	pm := w.scanPM
	end := nt + pad

	// Ops are run-length merged locally and flushed per run, so the
	// builder is called once per run instead of once per step.
	for patternI >= 0 && textI < end {
		if !final && (res.patternConsumed >= limit || res.textConsumed >= limit) {
			break
		}
		status := force
		force = cigar.OpNone
		if status == cigar.OpNone {
			j := uint(patternI)
			// at is the entry (curError, textI); at-npos is the same
			// position one level below.
			at := curError*npos + textI
			if affine && curError > 0 {
				if prev == cigar.OpIns {
					if j == 0 || store[at-npos]>>(j-1)&1 == 0 {
						status = cigar.OpIns
					}
				} else if prev == cigar.OpDel {
					if store[at-npos+1]>>j&1 == 0 {
						status = cigar.OpDel
					}
				}
			}
			if status == cigar.OpNone {
				// Match run. Phantom positions need no special case: their
				// scanPM word is all ones, so the run stops at the text end.
				n := min(patternI+1, end-textI)
				if !final {
					n = min(n, limit-max(res.patternConsumed, res.textConsumed))
				}
				run := 0
				for i := at + 1; run < n; i++ {
					jj := j - uint(run)
					if pm[textI+run]>>jj&1 != 0 || (jj != 0 && store[i]>>(jj-1)&1 != 0) {
						break
					}
					run++
				}
				if run > 0 {
					if runOp == cigar.OpMatch {
						runLen += run
					} else {
						if runLen > 0 {
							b.Append(runOp, runLen)
						}
						runOp, runLen = cigar.OpMatch, run
					}
					prev = cigar.OpMatch
					patternI -= run
					textI += run
					res.patternConsumed += run
					res.textConsumed += run
					continue
				}
				if curError > 0 {
					below := at - npos
					var viable uint8
					if store[below+1]>>j&1 == 0 {
						viable |= viableDel
					}
					if j == 0 || store[below+1]>>(j-1)&1 == 0 {
						viable |= viableSub
					}
					if j == 0 || store[below]>>(j-1)&1 == 0 {
						viable |= viableIns
					}
					status = pickViable(order, viable)
					if viable&(viable-1) != 0 {
						res.orderSensitive = true
						if record {
							w.tbForks = append(w.tbForks, tbFork{
								tbState: tbState{
									patternI: patternI, textI: textI, curError: curError,
									prev: prev, runOp: runOp, runLen: runLen, res: res,
								},
								flushed: len(b.Cigar()),
								viable:  viable,
								chosen:  status,
							})
						}
					}
				}
			}
			if status == cigar.OpNone {
				break // unreachable when dist came from dcWindow
			}
		}

		if textI >= nt {
			// Phantom region: see tbWindow. A phantom deletion emits no
			// op, so it neither starts nor breaks a run — exactly the
			// merge behaviour of emitting through the builder directly.
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

		// Only error ops reach here: matches are consumed as runs above.
		if status == runOp {
			runLen++
		} else {
			if runLen > 0 {
				b.Append(runOp, runLen)
			}
			runOp, runLen = status, 1
		}
		prev = status
		curError--
		res.errorsUsed++
		if status != cigar.OpIns {
			textI++
			res.textConsumed++
		}
		if status != cigar.OpDel {
			patternI--
			res.patternConsumed++
		}
	}
	if runLen > 0 {
		b.Append(runOp, runLen)
	}
	return res
}

// tbBest runs the terminal window's traceback. Because Bitap is inherently
// semi-global (the text end is free), a greedy single traceback of the last
// window can leave trailing text that the global cleanup must charge as
// deletions, overshooting the optimal distance. tbBest therefore evaluates
// candidate tracebacks — over error levels from the DC minimum upward and
// over the three error-case orders — and keeps the complete alignment with
// the lowest total cost (errors used + unconsumed pattern + unconsumed
// trailing text when global). The candidate count is bounded by the first
// candidate's cost, so the extra work is a small constant factor on the
// final window only.
func (w *Workspace) tbBest(subtext, subpattern []byte, pad, loc, dmin, levels int, global bool, b *cigar.Builder) tbResult {
	mp, nt := len(subpattern), len(subtext)
	costOf := func(r tbResult) int {
		c := r.errorsUsed + (mp - r.patternConsumed)
		if global {
			c += nt - loc - r.textConsumed
		}
		return c
	}

	savedOrder := w.cfg.Order
	defer func() { w.cfg.Order = savedOrder }()
	orders := [...]Order{savedOrder, OrderDelFirst, OrderGapFirst, OrderSubFirst}

	scratch := &w.tbScratch
	bestOps := w.tbBestOps[:0]
	var (
		bestRes  tbResult
		bestCost = int(^uint(0) >> 1)
	)
	kCap := w.cfg.MaxWindowErrors
	if m := max(mp, nt); kCap > m {
		kCap = m
	}
	maxD := dmin
	for d := dmin; d <= maxD; d++ {
		if d > levels {
			// Deeper candidate levels than DC computed: the Scrooge
			// kernel adds the missing rows on top of the stored ones; the
			// baseline rescans its stores in full, up to the sweep's cap.
			if w.cfg.Kernel == KernelScrooge {
				for ; levels < d; levels++ {
					w.scroogeLevel(levels+1, mp, nt+pad)
				}
			} else {
				levels = maxD
				w.dcScanBaseline(subtext, mp, levels, false, pad)
			}
		}
		for oi, o := range orders {
			if oi > 0 && o == savedOrder {
				continue // skip the duplicate of the configured order
			}
			w.cfg.Order = o
			scratch.Reset()
			r := w.tbWindow(mp, nt, pad, loc, d, true, scratch)
			if c := costOf(r); c < bestCost {
				bestCost = c
				bestRes = r
				bestOps = scratch.Cigar().CloneInto(bestOps)
			}
			if oi == 0 && !r.orderSensitive {
				// Every step of the first walk was forced, so the other
				// orders would replay it exactly at this level.
				break
			}
		}
		// No alignment cheaper than bestCost can use more errors than
		// bestCost, so cap the level sweep accordingly (the loop exits as
		// soon as the cap falls below the next level).
		maxD = min(kCap, bestCost)
	}
	b.AppendCigar(bestOps)
	w.tbBestOps = bestOps
	return bestRes
}

// tbSelect runs a non-terminal window's traceback, trying the three error
// orders and keeping the cheapest (fewest errors per consumed character,
// ties broken toward the configured order). With a single fixed order,
// greedy choices such as substitution-over-deletion can mis-anchor the next
// window and the drift compounds across deletion-heavy long reads; order
// selection keeps the chain on the low-error path at negligible cost (the
// traceback is ~W steps against the DC's W x k word operations).
// Config.NoOrderSelection restores the fixed Algorithm 2 behaviour.
func (w *Workspace) tbSelect(mp, nt, pad, loc, dist int, final bool, b *cigar.Builder) tbResult {
	if w.cfg.NoOrderSelection {
		return w.tbWindow(mp, nt, pad, loc, dist, final, b)
	}
	if w.cfg.Kernel == KernelScrooge && w.nw == 1 {
		return w.tbSelectFast(mp, nt, pad, loc, dist, final, b)
	}
	savedOrder := w.cfg.Order
	defer func() { w.cfg.Order = savedOrder }()
	orders := [...]Order{savedOrder, OrderDelFirst, OrderGapFirst, OrderSubFirst}

	scratch := &w.tbScratch
	bestOps := w.tbBestOps[:0]
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
		r := w.tbWindow(mp, nt, pad, loc, dist, final, scratch)
		if !haveBest || selectCost(r) < selectCost(bestRes) {
			haveBest = true
			bestRes = r
			bestOps = scratch.Cigar().CloneInto(bestOps)
		}
		if oi == 0 && !r.orderSensitive {
			// Every step was forced: the other orders would replay this
			// exact walk, so selection is already decided.
			break
		}
	}
	b.AppendCigar(bestOps)
	w.tbBestOps = bestOps
	return bestRes
}

// selectCost is tbSelect's cost of a walk: error density over consumed
// characters (scaled to avoid floats); lower is better.
func selectCost(r tbResult) int {
	consumed := r.patternConsumed + r.textConsumed
	if consumed == 0 {
		return int(^uint(0) >> 1)
	}
	return r.errorsUsed * 4096 / consumed
}

// tbSelectFast is tbSelect for the single-word Scrooge walker, deciding
// the order from one recorded walk instead of three full ones. The
// configured order walks once and records its forks. Every other order
// walks the same steps up to its first fork with a different op: with
// none, its walk is the first one and cannot win the strict comparison,
// so it is skipped; otherwise it resumes from that fork, behind a copy of
// the runs the first walk had flushed there. The candidates, their cost
// and the tie-break (the earlier order wins) are tbSelect's.
func (w *Workspace) tbSelectFast(mp, nt, pad, loc, dist int, final bool, b *cigar.Builder) tbResult {
	first := &w.tbScratch
	first.Reset()
	w.tbForks = w.tbForks[:0]
	st := tbState{patternI: mp - 1, textI: loc, curError: dist}
	bestRes := w.tbWindowFast(st, nt, pad, final, w.cfg.Order, cigar.OpNone, true, first)
	bestOps := first
	if len(w.tbForks) > 0 {
		bestCost := selectCost(bestRes)
		for _, o := range [...]Order{OrderDelFirst, OrderGapFirst, OrderSubFirst} {
			if o == w.cfg.Order {
				continue
			}
			fi := 0
			for fi < len(w.tbForks) && pickViable(o, w.tbForks[fi].viable) == w.tbForks[fi].chosen {
				fi++
			}
			if fi == len(w.tbForks) {
				continue // the first walk again
			}
			f := &w.tbForks[fi]
			// Two replay buffers: one may hold the best walk so far.
			cand := &w.tbReplay[0]
			if bestOps == cand {
				cand = &w.tbReplay[1]
			}
			cand.Reset()
			cand.AppendCigar(first.Cigar()[:f.flushed])
			r := w.tbWindowFast(f.tbState, nt, pad, final, o, pickViable(o, f.viable), false, cand)
			if c := selectCost(r); c < bestCost {
				bestRes, bestCost, bestOps = r, c, cand
			}
		}
	}
	b.AppendCigar(bestOps.Cigar())
	return bestRes
}

// pickError selects among substitution, insertion-open and deletion-open in
// the configured priority order (Section 6, partial support for complex
// scoring schemes).
func (w *Workspace) pickError(textI, curError, patternI int) cigar.Op {
	switch w.cfg.Order {
	case OrderGapFirst:
		if w.insZero(textI, curError, patternI) {
			return cigar.OpIns
		}
		if w.delZero(textI, curError, patternI) {
			return cigar.OpDel
		}
		if w.subZero(textI, curError, patternI) {
			return cigar.OpSubst
		}
	case OrderDelFirst:
		if w.delZero(textI, curError, patternI) {
			return cigar.OpDel
		}
		if w.subZero(textI, curError, patternI) {
			return cigar.OpSubst
		}
		if w.insZero(textI, curError, patternI) {
			return cigar.OpIns
		}
	default: // OrderSubFirst, Algorithm 2 as printed
		if w.subZero(textI, curError, patternI) {
			return cigar.OpSubst
		}
		if w.insZero(textI, curError, patternI) {
			return cigar.OpIns
		}
		if w.delZero(textI, curError, patternI) {
			return cigar.OpDel
		}
	}
	return cigar.OpNone
}
