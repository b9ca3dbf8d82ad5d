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

// SeedScratch holds the per-read state of CandidateLocationsInto — the
// staged lookup arrays, the implied read starts and the candidate list — so
// a mapping pipeline that seeds millions of reads reuses one scratch per
// worker instead of reallocating per read. Its arrays grow to the longest
// read seen and are reused from then on. The zero value is ready to use; a
// SeedScratch must not be shared between concurrent calls.
type SeedScratch struct {
	keys   []uint64 // canonical keys of the read's in-alphabet k-mers, with strand flags (see canonical)
	offs   []int32  // read offset of each key
	lo     []uint32 // each key's first slot entry in Index.entries, then its match or notFound
	n      []uint32 // the number of entries in each key's directory slot
	starts []int32  // one implied read start per seed hit
	cands  []Candidate
	sink   uint64 // keeps CandidateLocationsInto's prefetching loads
}

// notFound marks a read k-mer the table does not hold.
const notFound = ^uint32(0)

// Rank aggregates the starts CandidateLocationsInto recorded (for its read
// or, through rev, its reverse complement) into the ranked candidate list.
// Votes are pooled in bins of start/16 to tolerate indel drift, but each
// bin reports its most-voted exact start (the smallest on equal votes),
// clamped to 0, so downstream aligners get a precise anchor. Sorting the
// starts turns both counts into runs: equal starts are adjacent, and as
// the truncating start/16 never decreases along ascending starts, each
// bin is one contiguous stretch (bin 0 spans starts −15..15). Candidates
// come back most-voted first (position ascending on ties), capped at
// maxCandidates (0 = no cap); the slice views s.cands and stays valid
// until the scratch's next use.
func (s *SeedScratch) Rank(maxCandidates int) []Candidate {
	const bin = 16 // indel drift tolerance
	starts := s.starts
	slices.Sort(starts)
	s.cands = s.cands[:0]
	for i := 0; i < len(starts); {
		b := starts[i] / bin
		votes, best, bestVotes := 0, starts[i], 0
		for i < len(starts) && starts[i]/bin == b {
			j := i + 1
			for j < len(starts) && starts[j] == starts[i] {
				j++
			}
			if j-i > bestVotes {
				best, bestVotes = starts[i], j-i
			}
			votes += j - i
			i = j
		}
		s.cands = append(s.cands, Candidate{Pos: max(int(best), 0), Votes: votes})
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
