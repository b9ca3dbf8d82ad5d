package index

import (
	"cmp"
	"fmt"
	"slices"
)

// SeedIndex is the pluggable candidate-generation backend of the mapping
// pipeline (Figure 1, steps 0 and 1). The GenASM paper treats indexing as
// an offline step feeding seeding; Scrooge shows the whole candidate
// generator is swappable without touching the alignment kernel — so the
// pipeline depends on this interface, not on a concrete index layout.
// Implementations must be safe for concurrent lookups after construction.
type SeedIndex interface {
	// K returns the seed length.
	K() int
	// Ref returns the indexed reference (dense 2-bit codes). The slice is
	// shared with the index and must not be modified.
	Ref() []byte
	// CandidateLocationsInto runs the seeding step with caller-owned
	// scratch; see Index.CandidateLocationsInto for the contract.
	CandidateLocationsInto(s *SeedScratch, read []byte, maxCandidates int) []Candidate
	// Stats describes the index: backend, parameters and footprint.
	Stats() Stats
}

// Backend identifiers, shared with the on-disk format.
const (
	BackendHash        = "hash"
	BackendMinimizer   = "minimizer"
	BackendSuffixArray = "suffixarray"
)

// Stats describes a seed index.
type Stats struct {
	// Backend is the index kind: "hash", "minimizer" or "suffixarray".
	Backend string
	// K is the seed length; MinimizerW the sampling window (0 = none).
	K, MinimizerW int
	// RefLen is the indexed reference length in bases.
	RefLen int
	// Seeds is the number of indexed seed positions (for a suffix array,
	// every suffix is a seed position).
	Seeds int
	// Buckets is the number of distinct seed keys (0 where the backend has
	// no bucket structure).
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
// concurrent calls. Every SeedIndex backend funnels its seed hits through
// the same scratch via Begin/Vote/Collect, so candidate aggregation
// (binning, tie-breaking, ordering) is identical across backends by
// construction.
type SeedScratch struct {
	exact map[int]int
	bins  map[int]binAgg
	cands []Candidate
}

// Begin readies the scratch for one read.
func (s *SeedScratch) Begin() {
	if s.exact == nil {
		s.exact = make(map[int]int, 128)
		s.bins = make(map[int]binAgg, 16)
	}
	clear(s.exact)
	clear(s.bins)
}

// Vote records one seed hit implying the read starts at start.
func (s *SeedScratch) Vote(start int) { s.exact[start]++ }

// Collect aggregates the recorded votes into the ranked candidate list.
// Votes are pooled in bins to tolerate indel drift, but each bin reports
// its most-voted exact start so downstream aligners get a precise anchor.
// Candidates come back most-voted first (position ascending on ties),
// capped at maxCandidates (0 = no cap); the slice views s.cands and stays
// valid until the scratch's next use.
func (s *SeedScratch) Collect(maxCandidates int) []Candidate {
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
