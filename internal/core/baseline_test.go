package core

import (
	"genasm/internal/alphabet"
	"genasm/internal/bitvec"
)

// perEdge is the paper's original TB-SRAM layout (Section 6), kept as a
// test oracle for the single R entry store: Algorithm 1's position-major
// scan stores the intermediate match, insertion and deletion bitvectors
// (lines 15-18) of every (text position, error level) entry, and the
// substitution bitvector is re-derived as deletion<<1. Stores are indexed
// [textPos*stride + level]*nw over 2W text positions (W real characters
// plus up to W phantom end-padding ones); mStore holds levels 0..W,
// iStore and dStore levels 1..W (level 0 slots unused).
type perEdge struct {
	alpha      *alphabet.Alphabet
	nw, stride int
	pm         alphabet.PatternMasks
	ones       []uint64
	// r and oldR are the R status rows of the current and the previous
	// text position, (W+1) x nw each.
	r, oldR                []uint64
	mStore, iStore, dStore []uint64
}

// newPerEdge allocates the per-edge stores for cfg's window geometry.
func newPerEdge(cfg Config) *perEdge {
	cfg = cfg.withDefaults()
	p := &perEdge{
		alpha:  cfg.Alphabet,
		nw:     bitvec.Words(cfg.WindowSize),
		stride: cfg.WindowSize + 1,
	}
	p.r = make([]uint64, p.stride*p.nw)
	p.oldR = make([]uint64, p.stride*p.nw)
	words := 2 * cfg.WindowSize * p.stride * p.nw
	p.mStore = make([]uint64, words)
	p.iStore = make([]uint64, words)
	p.dStore = make([]uint64, words)
	p.ones = make([]uint64, p.nw)
	bitvec.Fill(p.ones, ^uint64(0))
	p.pm.GenerateInto(cfg.Alphabet, make([]byte, cfg.WindowSize))
	return p
}

// footprintBytes is the scratch memory the per-edge layout allocates, the
// counterpart of Workspace.FootprintBytes.
func (p *perEdge) footprintBytes() int {
	words := len(p.r) + len(p.oldR) + len(p.mStore) + len(p.iStore) + len(p.dStore) + len(p.ones)
	for _, m := range p.pm.Masks {
		words += len(m)
	}
	return words * 8
}

// entry returns a store's bitvector at (textPos, level).
func (p *perEdge) entry(store []uint64, textPos, level int) []uint64 {
	o := (textPos*p.stride + level) * p.nw
	return store[o : o+p.nw]
}

// scan is GenASM-DC as Algorithm 1 prints it: position-major, right to
// left over subtext after pad phantom positions, computing every level up
// to the pattern length from scratch and storing the three per-edge
// bitvectors of each entry. Its (dist, loc) follow dcWindow's rules: the minimum level with
// a 0 MSB at position 0 when anchored, the minimum-distance smallest
// position below the text end in search mode.
func (p *perEdge) scan(subtext, subpattern []byte, search bool, pad int) dcResult {
	mp, nt := len(subpattern), len(subtext)
	p.pm.GenerateInto(p.alpha, subpattern)
	// The window's bitvectors span only as many words as the sub-pattern
	// needs.
	nw := max(bitvec.Words(mp), 1)
	msb := mp - 1
	row := func(rows []uint64, d int) []uint64 { return rows[d*p.nw : d*p.nw+nw] }

	r, oldR := p.r, p.oldR
	for d := 0; d <= mp; d++ {
		bitvec.Fill(row(r, d), ^uint64(0))
	}
	res := dcResult{dist: -1}
	for i := nt - 1 + pad; i >= 0; i-- {
		curPM := p.ones[:nw]
		if i < nt {
			curPM = p.pm.Mask(subtext[i])
		}
		r, oldR = oldR, r
		bitvec.ShiftLeft1Or(row(r, 0), row(oldR, 0), curPM)
		copy(p.entry(p.mStore, i, 0), row(r, 0))
		for d := 1; d <= mp; d++ {
			rd, rd1, old1, old := row(r, d), row(r, d-1), row(oldR, d-1), row(oldR, d)
			iRow, dRow, mRow := p.entry(p.iStore, i, d), p.entry(p.dStore, i, d), p.entry(p.mStore, i, d)
			var carryS, carryI, carryM uint64
			for wi := range nw {
				del := old1[wi]
				ins := rd1[wi]<<1 | carryI
				sub := old1[wi]<<1 | carryS
				match := old[wi]<<1 | carryM | curPM[wi]
				carryI = rd1[wi] >> 63
				carryS = old1[wi] >> 63
				carryM = old[wi] >> 63
				dRow[wi], iRow[wi], mRow[wi] = del, ins, match
				rd[wi] = del & sub & ins & match
			}
		}
		if i >= nt || (!search && i > 0) {
			continue
		}
		for d := 0; d <= mp; d++ {
			if bitvec.IsZeroBit(row(r, d), msb) {
				// Positions run downward, so an equal distance moves the
				// start to the smaller position.
				if res.dist < 0 || d <= res.dist {
					res.dist, res.loc = d, i
				}
				break
			}
		}
	}
	p.r, p.oldR = r, oldR
	return res
}
