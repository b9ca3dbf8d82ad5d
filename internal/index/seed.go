package index

import (
	"cmp"
	"fmt"
	"slices"
)

// Backend labels of Stats: every k-mer indexed, or window minimizers.
const (
	BackendHash      = "hash"
	BackendMinimizer = "minimizer"
)

// Stats describes a seed index.
type Stats struct {
	// Backend labels the sampling: "hash" when MinimizerW is 0,
	// "minimizer" otherwise.
	Backend string
	// K is the seed length; MinimizerW the sampling window (0 = none).
	K, MinimizerW int
	// RefLen is the indexed reference length in bases.
	RefLen int
	// Seeds is the number of indexed seed positions.
	Seeds int
	// Buckets is the number of distinct seed keys.
	Buckets int
	// Bytes approximates the in-memory footprint of the index structures,
	// reference included.
	Bytes int64
}

// MaxK is the longest seed length whose 2-bit packing fits a uint64 key.
const MaxK = 31

// KRangeError reports a seed length outside the packable range [1, MaxK].
type KRangeError struct {
	K int
}

func (e *KRangeError) Error() string {
	return fmt.Sprintf("index: seed length k=%d out of range [1,%d]", e.K, MaxK)
}

// Candidate is a potential mapping location of a read, with the number of
// seeds that voted for it.
type Candidate struct {
	// Pos is the inferred read start position in the reference.
	Pos int
	// Votes is the number of seed hits consistent with Pos.
	Votes int
}

// binAgg aggregates the votes of one drift-tolerance bin.
type binAgg struct {
	votes     int
	bestStart int
	bestVotes int
}

// SeedScratch holds the per-read state of CandidateLocationsInto — vote
// maps and the candidate list — so a mapping pipeline that seeds millions
// of reads reuses one scratch per worker instead of reallocating per read.
// The zero value is ready to use; a SeedScratch must not be shared between
// concurrent calls.
type SeedScratch struct {
	exact map[int]int
	bins  map[int]binAgg
	cands []Candidate
}

// begin readies the scratch for one read.
func (s *SeedScratch) begin() {
	if s.exact == nil {
		s.exact = make(map[int]int, 128)
		s.bins = make(map[int]binAgg, 16)
	}
	clear(s.exact)
	clear(s.bins)
}

// vote records one seed hit implying the read starts at start.
func (s *SeedScratch) vote(start int) { s.exact[start]++ }

// collect aggregates the recorded votes into the ranked candidate list.
// Votes are pooled in bins to tolerate indel drift, but each bin reports
// its most-voted exact start so downstream aligners get a precise anchor.
// Candidates come back most-voted first (position ascending on ties),
// capped at maxCandidates (0 = no cap); the slice views s.cands and stays
// valid until the scratch's next use.
func (s *SeedScratch) collect(maxCandidates int) []Candidate {
	const bin = 16 // indel drift tolerance
	for start, v := range s.exact {
		b, ok := s.bins[start/bin]
		if !ok {
			b = binAgg{bestStart: start, bestVotes: v}
		}
		b.votes += v
		if v > b.bestVotes || (v == b.bestVotes && start < b.bestStart) {
			b.bestVotes, b.bestStart = v, start
		}
		s.bins[start/bin] = b
	}
	s.cands = s.cands[:0]
	for _, b := range s.bins {
		pos := max(b.bestStart, 0)
		s.cands = append(s.cands, Candidate{Pos: pos, Votes: b.votes})
	}
	slices.SortFunc(s.cands, func(a, b Candidate) int {
		if c := cmp.Compare(b.Votes, a.Votes); c != 0 {
			return c
		}
		return cmp.Compare(a.Pos, b.Pos)
	})
	if maxCandidates > 0 && len(s.cands) > maxCandidates {
		return s.cands[:maxCandidates]
	}
	return s.cands
}
