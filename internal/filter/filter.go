// Package filter implements the pre-alignment filtering use case
// (Section 10.3): quick accept/reject decisions on (reference region, read)
// pairs before the expensive alignment step, plus the false-accept /
// false-reject evaluation methodology of the Shouji paper that the GenASM
// paper adopts.
//
// Implemented filters:
//
//   - GenASMDC — the paper's filter: GenASM-DC's decision whether the
//     semi-global distance is within the threshold. The accelerator runs
//     the k+1 Bitap error levels in parallel processing elements; software
//     would run them one after another, so bitap.MultiWord.Within decides
//     with Myers' delta-vector scan over the same pattern masks instead:
//     one row of ceil(m/64) words, one pass over the region, stopping as
//     soon as the last row's score is within k or can no longer get
//     there. The decision equals "semi-global distance <= k" exactly, so
//     it never false-rejects. Against a pair's end-to-end edit distance
//     (the Evaluate ground truth) it false-accepts rarely: the free start
//     in the region hides leading deletions (footnote 4).
//   - Shouji — the state-of-the-art FPGA baseline (Alser et al. 2019):
//     sliding 4-column windows over a 2E+1-diagonal neighborhood map,
//     assembling an optimistic match bitvector and counting its ones.
//   - SHD — Shifted Hamming Distance (Xin et al. 2015): AND of amended
//     shifted Hamming masks.
//   - BaseCount — an admissible base-composition lower bound (never
//     false-rejects, weak acceptance power); the simplest useful contrast.
package filter

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"genasm/internal/alphabet"
	"genasm/internal/bitap"
)

// Filter is a pre-alignment filter: Accept reports whether the pair might
// be within maxEdits edits (true = keep for alignment).
type Filter interface {
	Name() string
	Accept(ref, read []byte, maxEdits int) (bool, error)
}

// Scratch carries a filter's reusable per-goroutine state across
// AcceptScratch calls, so pipelines filtering millions of pairs do not
// rebuild searcher masks and rows per candidate. The zero value is ready;
// a Scratch must not be shared between concurrent calls.
type Scratch struct {
	mw *bitap.MultiWord
	// lastRead/lastK remember the searcher's current target so repeated
	// candidates of one read (the mapper filters many regions against
	// the same read) skip mask regeneration. lastRead is an owned copy:
	// callers may rewrite their read buffer in place between calls.
	lastRead []byte
	lastK    int
}

// GenASMDC filters with the Bitap distance decision (Section 8: "since we
// only need to estimate the edit distance and check whether it is above a
// user-defined threshold, GenASM-DC can be used as a pre-alignment
// filter").
type GenASMDC struct{}

// Name implements Filter.
func (GenASMDC) Name() string { return "GenASM-DC" }

// Accept implements Filter. It accepts exactly when the semi-global
// distance (free start and end in the reference region) is at most
// maxEdits, matching the hardware's behaviour on candidate regions with
// slack.
func (GenASMDC) Accept(ref, read []byte, maxEdits int) (bool, error) {
	return GenASMDC{}.AcceptScratch(&Scratch{}, ref, read, maxEdits)
}

// AcceptScratch is Accept reusing caller-held Scratch, the mapping
// pipeline's path. The multi-word searcher (mask tables, delta vectors)
// lives on the scratch and is re-targeted per pair instead of rebuilt —
// and not even re-targeted when the (read, maxEdits) pair is unchanged
// since the previous call, the common case of one read filtered against
// many candidate regions — so steady-state filtering is allocation-free
// and regenerates masks once per read.
func (GenASMDC) AcceptScratch(s *Scratch, ref, read []byte, maxEdits int) (bool, error) {
	switch {
	case s.mw == nil:
		mw, err := bitap.NewMultiWord(alphabet.DNA, read, maxEdits)
		if err != nil {
			return false, err
		}
		s.mw = mw
		s.lastRead = append(s.lastRead[:0], read...)
		s.lastK = maxEdits
	case maxEdits == s.lastK && bytes.Equal(read, s.lastRead):
		// Same target: masks, rows and the memo are already correct.
	default:
		if err := s.mw.Reset(read, maxEdits); err != nil {
			return false, err
		}
		s.lastRead = append(s.lastRead[:0], read...)
		s.lastK = maxEdits
	}
	return s.mw.Within(ref), nil
}

// Shouji approximates the edit distance by stitching together the longest
// matching segments across diagonals.
type Shouji struct{}

// Name implements Filter.
func (Shouji) Name() string { return "Shouji" }

// Accept implements Filter.
func (Shouji) Accept(ref, read []byte, maxEdits int) (bool, error) {
	if len(read) == 0 {
		return true, nil
	}
	m := len(read)
	e := maxEdits
	// Neighborhood map: diag[d+e][j] = true (match) iff read[j] == ref[j+d].
	ndiag := 2*e + 1
	match := make([][]bool, ndiag)
	for di := 0; di < ndiag; di++ {
		d := di - e
		row := make([]bool, m)
		for j := 0; j < m; j++ {
			if rj := j + d; rj >= 0 && rj < len(ref) {
				row[j] = read[j] == ref[rj]
			}
		}
		match[di] = row
	}

	// 4-column search windows: each window picks the diagonal segment
	// with the most matches and contributes that segment's mismatches to
	// the estimate. The stitching is optimistic — diagonals may switch
	// freely between windows without charging the implied gaps — which is
	// why Shouji never false-rejects but falsely accepts dissimilar pairs
	// (the paper's Section 10.3 measures 4%/17%).
	const win = 4
	mismatches := 0
	for j := 0; j < m; j += win {
		w := min(win, m-j)
		bestZeros := -1
		for di := 0; di < ndiag; di++ {
			zeros := 0
			for x := 0; x < w; x++ {
				if match[di][j+x] {
					zeros++
				}
			}
			if zeros > bestZeros {
				bestZeros = zeros
			}
		}
		mismatches += w - bestZeros
	}
	return mismatches <= maxEdits, nil
}

// SHD is the Shifted Hamming Distance filter.
type SHD struct{}

// Name implements Filter.
func (SHD) Name() string { return "SHD" }

// Accept implements Filter.
func (SHD) Accept(ref, read []byte, maxEdits int) (bool, error) {
	m := len(read)
	if m == 0 {
		return true, nil
	}
	e := maxEdits
	// Hamming masks for shifts -e..e (true = mismatch), amended to flush
	// short spurious match runs, then ANDed.
	final := make([]bool, m)
	for i := range final {
		final[i] = true
	}
	mask := make([]bool, m)
	for d := -e; d <= e; d++ {
		for j := 0; j < m; j++ {
			rj := j + d
			mask[j] = rj < 0 || rj >= len(ref) || read[j] != ref[rj]
		}
		amend(mask)
		for j := 0; j < m; j++ {
			final[j] = final[j] && mask[j]
		}
	}
	ones := 0
	for _, b := range final {
		if b {
			ones++
		}
	}
	return ones <= maxEdits, nil
}

// amend flips match runs of length <= 2 that are surrounded by mismatches
// (SHD's speckle amendment: short matches between errors cannot anchor a
// real alignment).
func amend(mask []bool) {
	m := len(mask)
	j := 0
	for j < m {
		if mask[j] {
			j++
			continue
		}
		// run of matches [j, k)
		k := j
		for k < m && !mask[k] {
			k++
		}
		leftBounded := j == 0 || mask[j-1]
		rightBounded := k == m || mask[k]
		if k-j <= 2 && leftBounded && rightBounded && !(j == 0 && k == m) {
			for x := j; x < k; x++ {
				mask[x] = true
			}
		}
		j = k
	}
}

// BaseCount is the base-composition lower bound: if the multiset of bases
// differs by more than the threshold allows, the pair cannot be within
// maxEdits. It never false-rejects.
type BaseCount struct{}

// Name implements Filter.
func (BaseCount) Name() string { return "BaseCount" }

// Accept implements Filter.
func (BaseCount) Accept(ref, read []byte, maxEdits int) (bool, error) {
	var cr, cd [4]int
	for _, c := range ref {
		if c > 3 {
			return false, fmt.Errorf("basecount: invalid code %d", c)
		}
		cr[c]++
	}
	for _, c := range read {
		if c > 3 {
			return false, fmt.Errorf("basecount: invalid code %d", c)
		}
		cd[c]++
	}
	diff := 0
	for i := 0; i < 4; i++ {
		d := cr[i] - cd[i]
		if d < 0 {
			d = -d
		}
		diff += d
	}
	// Each substitution changes two counts, each indel one; the bound
	// below is therefore admissible.
	return (diff+1)/2 <= maxEdits, nil
}

// Pair is one (reference region, read) filtering instance with its ground
// truth global edit distance.
type Pair struct {
	Ref, Read []byte
	TrueDist  int
}

// Stats aggregates filter outcomes against ground truth, following the
// definitions of the Shouji paper (Section 10.3): the false accept rate is
// falsely-accepted dissimilar pairs over all ground-truth-dissimilar pairs;
// the false reject rate is falsely-rejected similar pairs over all
// ground-truth-similar pairs.
type Stats struct {
	Pairs          int
	TrueSimilar    int
	TrueDissimilar int
	Accepted       int
	FalseAccepts   int
	FalseRejects   int
}

// FalseAcceptRate returns FA per the Shouji definition.
func (s Stats) FalseAcceptRate() float64 {
	if s.TrueDissimilar == 0 {
		return 0
	}
	return float64(s.FalseAccepts) / float64(s.TrueDissimilar)
}

// FalseRejectRate returns FR per the Shouji definition.
func (s Stats) FalseRejectRate() float64 {
	if s.TrueSimilar == 0 {
		return 0
	}
	return float64(s.FalseRejects) / float64(s.TrueSimilar)
}

// Evaluate runs the filter over the pairs at threshold maxEdits and
// tallies accuracy against each pair's TrueDist.
func Evaluate(f Filter, pairs []Pair, maxEdits int) (Stats, error) {
	var st Stats
	for i := range pairs {
		p := &pairs[i]
		similar := p.TrueDist <= maxEdits
		accepted, err := f.Accept(p.Ref, p.Read, maxEdits)
		if err != nil {
			return Stats{}, fmt.Errorf("pair %d: %w", i, err)
		}
		st.Pairs++
		if similar {
			st.TrueSimilar++
		} else {
			st.TrueDissimilar++
		}
		if accepted {
			st.Accepted++
			if !similar {
				st.FalseAccepts++
			}
		} else if similar {
			st.FalseRejects++
		}
	}
	return st, nil
}

// GeneratePairs builds a benchmark pair set in the style of the Shouji
// datasets: each pair is a read drawn from a synthetic genome chunk by a
// sequencing-style error process (substitution-dominated, as in Illumina
// data) paired with the equal-length candidate region at the same position
// — exactly how real pre-alignment filtering inputs arise from seeding.
// Injected error counts sweep from 0 to ~6x the threshold so the dissimilar
// class spans both near-boundary and clearly-dissimilar pairs, as in the
// mapper-produced candidate sets of the Shouji datasets.
func GeneratePairs(rng *rand.Rand, n, length, maxEdits int, trueDist func(ref, read []byte) int) []Pair {
	pairs := make([]Pair, 0, n)
	for i := 0; i < n; i++ {
		// Genome chunk with slack beyond the region for deletion drift.
		chunk := make([]byte, length+6*maxEdits+8)
		for j := range chunk {
			chunk[j] = byte(rng.IntN(4))
		}
		edits := rng.IntN(6*maxEdits + 2)
		errorRate := float64(edits) / float64(length)
		read := make([]byte, 0, length)
		gi := 0
		for len(read) < length {
			if rng.Float64() >= errorRate {
				read = append(read, chunk[gi])
				gi++
				continue
			}
			switch x := rng.Float64(); {
			case x < 0.90: // substitution-dominated, like Illumina reads
				read = append(read, (chunk[gi]+byte(1+rng.IntN(3)))%4)
				gi++
			case x < 0.95: // insertion
				read = append(read, byte(rng.IntN(4)))
			default: // deletion
				gi++
			}
		}
		ref := chunk[:length]
		pairs = append(pairs, Pair{Ref: ref, Read: read, TrueDist: trueDist(ref, read)})
	}
	return pairs
}
