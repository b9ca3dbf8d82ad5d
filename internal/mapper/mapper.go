// Package mapper assembles the full read-mapping pipeline of Figure 1:
// seeding over a prebuilt seed index, optional GenASM-DC pre-alignment
// filtering and read alignment. The alignment step is the one swappable
// part — GenASM over a workspace pool by default, or classic affine-gap DP
// (the BWA-MEM/Minimap2 stand-in) — enabling the Figure 11 end-to-end
// comparison of swapping only the alignment step.
package mapper

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"genasm/internal/cigar"
	"genasm/internal/core"
	"genasm/internal/dp"
	"genasm/internal/filter"
	"genasm/internal/index"
	"genasm/internal/pool"
	"genasm/internal/seq"
)

// Aligner is the pipeline's alignment step (step 3 of Figure 1).
// AlignRegionInto aligns read (fully consumed) against a candidate
// reference region, writing the CIGAR into buf's storage (reusing its
// capacity) and returning it with the offset within region where the
// alignment begins. The returned CIGAR is owned by the caller. It must
// honor ctx where it can block, and be safe for concurrent use when the
// Mapper is shared.
//
// maxDist bounds the edit distance the caller will accept: when the
// alignment's distance is at most maxDist the result must be exactly the
// unbounded one, and otherwise the call returns core.ErrDistanceBound
// (an implementation may stop aligning as soon as it knows the bound is
// crossed). A negative maxDist means no bound.
type Aligner interface {
	AlignRegionInto(ctx context.Context, region, read []byte, maxDist int, buf cigar.Cigar) (cigar.Cigar, int, error)
}

// PoolAligner is the GenASM alignment step: each candidate draws a
// workspace from a pool, so one Mapper is safe for concurrent use and a
// saturated pool returns ctx.Err() instead of blocking forever. Any pool
// of the reference alphabet serves: the search for the alignment start
// within the first window, which candidate regions need for their leading
// anchor slack, is a per-call mode of core's AlignRegion.
type PoolAligner struct {
	Pool *pool.Pool
}

// AlignRegionInto implements Aligner with core's AlignRegion, which stops
// a candidate as soon as its committed edits cross maxDist. The arena
// CIGAR is copied into buf while the workspace is still checked out, so
// the per-candidate alignment step allocates nothing.
func (a PoolAligner) AlignRegionInto(ctx context.Context, region, read []byte, maxDist int, buf cigar.Cigar) (cigar.Cigar, int, error) {
	var start int
	err := a.Pool.Do(ctx, func(ws *core.Workspace) error {
		aln, err := ws.AlignRegion(region, read, maxDist)
		if err != nil {
			return err
		}
		buf = aln.Cigar.CloneInto(buf)
		start = aln.TextStart
		return nil
	})
	return buf, start, err
}

// DPAligner is the software-baseline alignment step: banded affine-gap
// fit alignment, the algorithmic core of BWA-MEM's and Minimap2's
// alignment steps.
type DPAligner struct {
	// Scoring defaults to cigar.Minimap2.
	Scoring cigar.Scoring
	// Band restricts the DP to a diagonal band (0 = full matrix).
	Band int
}

// AlignRegionInto implements Aligner. The DP fills its whole matrix, so
// maxDist only decides the result after the fact.
func (a DPAligner) AlignRegionInto(_ context.Context, region, read []byte, maxDist int, buf cigar.Cigar) (cigar.Cigar, int, error) {
	sc := a.Scoring
	if sc == (cigar.Scoring{}) {
		sc = cigar.Minimap2
	}
	res := dp.Align(region, read, sc, dp.Fit, a.Band)
	if maxDist >= 0 && res.Distance() > maxDist {
		return buf, 0, core.ErrDistanceBound
	}
	return res.Cigar.CloneInto(buf), res.TextStart, nil
}

// Config parameterizes the pipeline. The seeding parameters (seed length,
// minimizer window) belong to the seed index the Mapper is built over.
type Config struct {
	// MaxCandidates bounds the candidate locations tried per strand
	// (0 selects the default 8; negative is refused).
	MaxCandidates int
	// ErrorRate is the expected sequencing error rate, used for region
	// slack and the filtering threshold: in [0, 1], 0 selects the default
	// 0.10.
	ErrorRate float64
	// Prefilter enables GenASM-DC pre-alignment filtering (step 2 of
	// Figure 1) between seeding and alignment.
	Prefilter bool
	// Aligner is the alignment step (step 3); nil selects GenASM over a
	// private search-capable workspace pool.
	Aligner Aligner
	// Trace optionally observes every pipeline stage (seeding, filtering,
	// alignment) of every read. Hooks must be concurrency-safe; see Trace.
	Trace *Trace
}

// Mapping is the result of mapping one read.
type Mapping struct {
	// Mapped reports whether any candidate produced an alignment.
	Mapped bool
	// Pos is the reference position the read aligned to.
	Pos int
	// RevComp reports whether the reverse-complement strand aligned.
	RevComp bool
	// Cigar of the best alignment.
	Cigar cigar.Cigar
	// Distance is the edit distance of the best alignment.
	Distance int
	// Candidates is the number of candidate locations considered.
	Candidates int
	// Filtered is the number of candidates rejected by the pre-alignment
	// filter.
	Filtered int
	// Aligned is the number of candidates that reached the alignment
	// step.
	Aligned int
}

// mapScratch is the per-read scratch of the mapping pipeline: the
// reverse-complement buffer, one seeding scratch per strand (staged lookup
// arrays, implied starts and candidate list — each strand's candidates
// view its own scratch, and both are live while the strands are merged),
// the pre-alignment filter's searcher, and a CIGAR double-buffer (the
// current candidate's alignment and the best one kept so far). One
// scratch serves one in-flight MapRead; the Mapper pools them so
// steady-state mapping performs no per-read scratch allocations.
type mapScratch struct {
	rc       []byte
	fwd, rev index.SeedScratch
	flt      filter.Scratch
	cur      cigar.Cigar
	best     cigar.Cigar
}

// weakVotes is the vote count below which a forward-strand candidate is
// weak: before aligning one, MapRead seeds the reverse strand so that
// stronger reverse-strand candidates go first. It is not a filter: it
// decides when the reverse strand is seeded, every candidate stays
// eligible, and a poor value costs alignment time, not mappings.
const weakVotes = 3

// Mapper maps reads against an indexed reference. It is safe for
// concurrent use when its Aligner is (per-read scratch is pooled
// internally; the default Aligner draws workspaces from a pool).
type Mapper struct {
	cfg     Config
	idx     *index.Index
	ref     []byte
	k       int       // seed length, the shortest mappable read
	scratch sync.Pool // of *mapScratch
}

// Validate reports a Config that New refuses: an ErrorRate outside [0, 1]
// (NaN included; 0 selects the default) or a negative MaxCandidates.
// Either would otherwise surface per read, as a panic or an out-of-memory
// filter, or silently map nothing.
func (c Config) Validate() error {
	if !(c.ErrorRate >= 0 && c.ErrorRate <= 1) {
		return fmt.Errorf("mapper: error rate %v outside [0, 1]", c.ErrorRate)
	}
	if c.MaxCandidates < 0 {
		return fmt.Errorf("mapper: max candidates %d is negative", c.MaxCandidates)
	}
	return nil
}

// New returns a Mapper over a prebuilt seed index, built in memory or
// loaded from an index file.
func New(idx *index.Index, cfg Config) (*Mapper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxCandidates == 0 {
		cfg.MaxCandidates = 8
	}
	if cfg.ErrorRate == 0 {
		cfg.ErrorRate = 0.10
	}
	if cfg.Aligner == nil {
		p, err := pool.New(pool.Config{})
		if err != nil {
			return nil, err
		}
		cfg.Aligner = PoolAligner{Pool: p}
	}
	return &Mapper{cfg: cfg, idx: idx, ref: idx.Ref(), k: idx.K()}, nil
}

// MapRead maps one encoded read, trying both strands, and returns the
// lowest-edit-distance alignment across all surviving candidates.
// Candidates are tried strongest first: the forward strand's while they
// have at least weakVotes votes, then both strands' merged by votes (the
// forward one first on equal votes), so the reverse strand is seeded only
// when the forward strand runs out of such candidates. The first mapping
// within the expected error budget ends the read.
func (m *Mapper) MapRead(read []byte) (Mapping, error) {
	return m.MapReadContext(context.Background(), read)
}

// MapReadContext is MapRead with cancellation: it checks ctx between
// candidates and returns ctx.Err() as soon as the context ends (including
// when the alignment step reports it).
func (m *Mapper) MapReadContext(ctx context.Context, read []byte) (Mapping, error) {
	if len(read) < m.k {
		return Mapping{}, fmt.Errorf("mapper: read length %d below seed length %d", len(read), m.k)
	}
	tr := m.cfg.Trace
	readStart := tr.now(tr != nil && tr.ReadDone != nil)
	s, _ := m.scratch.Get().(*mapScratch)
	if s == nil {
		s = &mapScratch{}
	}
	defer m.scratch.Put(s)
	best := Mapping{Distance: int(^uint(0) >> 1)}

	maxEdits := int(float64(len(read))*m.cfg.ErrorRate) + 4
	// Anything beyond this is a wrong location, not a noisy alignment.
	rejectAbove := 2*maxEdits + 8

	// Seed with a read prefix: implied start positions drift with
	// accumulated indel imbalance, so voting with the whole of a long read
	// smears candidates over hundreds of positions. A ~256 bp prefix keeps
	// the drift within the aligner's first search window while still
	// casting a couple hundred votes.
	seedLen := min(len(read), 256)

	// A mapping at or below the expected error budget is a confident hit:
	// stop scanning further candidates (and, if it is not yet seeded, the
	// other strand), as production mappers do once the best chain is
	// aligned.
	good := func() bool { return best.Mapped && best.Distance <= maxEdits }

	// Merge the strands' vote-ranked candidate lists, most votes first
	// and the forward candidate on equal votes, as production mappers
	// rank the hits of both strands before aligning any. The reverse
	// strand is seeded lazily, once the forward candidates run out or
	// turn weak: a weak hit on a random locus costs about as much to
	// align as the true one, so a reverse-strand read must not align its
	// forward strand's noise first. A pass over a whole read records the
	// reverse strand's starts too, which then only need ranking.
	var fused *index.SeedScratch
	if seedLen == len(read) {
		fused = &s.rev
	}
	fwd := m.seedStrand(&s.fwd, read[:seedLen], fused)
	var rev []index.Candidate
	revSeeded := false
	for !good() {
		if !revSeeded && (len(fwd) == 0 || fwd[0].Votes < weakVotes) {
			s.rc = seq.AppendReverseComplement(s.rc[:0], read)
			prefix := s.rc[:seedLen]
			if fused != nil {
				prefix = nil
			}
			rev = m.seedStrand(&s.rev, prefix, nil)
			revSeeded = true
		}
		if len(fwd) == 0 && len(rev) == 0 {
			break
		}
		var cand index.Candidate
		r, rc := read, false
		if len(fwd) > 0 && (len(rev) == 0 || fwd[0].Votes >= rev[0].Votes) {
			cand, fwd = fwd[0], fwd[1:]
		} else {
			cand, rev = rev[0], rev[1:]
			r, rc = s.rc, true
		}
		if err := ctx.Err(); err != nil {
			return Mapping{}, err
		}
		best.Candidates++
		// Candidate anchors are near-exact (the seeding step reports
		// the most-voted exact start), so only a small leading slack
		// is needed; the trailing slack absorbs deletion drift — the
		// paper's "text region of length m+k" (Section 6).
		start := max(0, cand.Pos-16)
		end := min(len(m.ref), cand.Pos+len(r)+maxEdits+16)
		region := m.ref[start:end]

		if m.cfg.Prefilter {
			filterStart := tr.now(tr != nil && tr.FilterDone != nil)
			ok, err := filter.GenASMDC{}.AcceptScratch(&s.flt, region, r, maxEdits)
			if tr != nil && tr.FilterDone != nil {
				tr.FilterDone(ok && err == nil, time.Since(filterStart))
			}
			if err != nil {
				return Mapping{}, err
			}
			if !ok {
				best.Filtered++
				continue
			}
		}
		best.Aligned++
		// Branch and bound: a result above rejectAbove, or one that
		// cannot beat the best mapping so far, would be discarded
		// below, so the aligner may stop as soon as it crosses that
		// (best.Distance is MaxInt until a candidate maps).
		maxDist := min(rejectAbove, best.Distance-1)
		alignStart := tr.now(tr != nil && tr.AlignDone != nil)
		cg, off, err := m.cfg.Aligner.AlignRegionInto(ctx, region, r, maxDist, s.cur)
		if tr != nil && tr.AlignDone != nil {
			tr.AlignDone(err == nil, time.Since(alignStart))
		}
		s.cur = cg // keep the (possibly grown) buffer either way
		if err != nil {
			// Cancellation must surface; so must a quarantined panic
			// (the pooled workspace is gone, retrying candidates on a
			// fresh one would mask real corruption). A candidate past
			// maxDist, or any other failure of a single candidate, is
			// not fatal and the next one is tried.
			if ctx.Err() != nil {
				return Mapping{}, ctx.Err()
			}
			var pe *core.PanicError
			if errors.As(err, &pe) {
				return Mapping{}, err
			}
			continue
		}
		if d := cg.EditDistance(); d <= rejectAbove && d < best.Distance {
			best.Mapped = true
			best.Pos = start + off
			best.RevComp = rc
			best.Distance = d
			// Keep this CIGAR by swapping the double-buffer: the next
			// candidate aligns into the previous best's storage.
			s.cur, s.best = s.best, cg
		}
	}
	if best.Mapped {
		// The kept CIGAR lives in pooled scratch; the caller-facing copy
		// is the one per-read allocation of the pipeline.
		best.Cigar = s.best.Clone()
	} else {
		best.Distance = 0
	}
	if tr != nil && tr.ReadDone != nil {
		tr.ReadDone(best.Candidates, best.Filtered, best.Aligned, best.Mapped, time.Since(readStart))
	}
	return best, nil
}

// seedStrand seeds one strand's read prefix into s (and its reverse
// complement into a non-nil rev), or with a nil prefix ranks the starts
// s holds, and reports it to the trace. The candidates view s.
func (m *Mapper) seedStrand(s *index.SeedScratch, prefix []byte, rev *index.SeedScratch) []index.Candidate {
	tr := m.cfg.Trace
	seedStart := tr.now(tr != nil && tr.SeedingDone != nil)
	var cands []index.Candidate
	if prefix == nil {
		cands = s.Rank(m.cfg.MaxCandidates)
	} else {
		cands = m.idx.CandidateLocationsInto(s, prefix, m.cfg.MaxCandidates, rev)
	}
	if tr != nil && tr.SeedingDone != nil {
		seeds := 0
		for _, c := range cands {
			seeds += c.Votes
		}
		tr.SeedingDone(seeds, len(cands), time.Since(seedStart))
	}
	return cands
}

// Stats aggregates mapping outcomes over a read set.
type Stats struct {
	Reads      int
	Mapped     int
	Correct    int // mapped within tolerance of the true location
	Candidates int
	Filtered   int
	Aligned    int
	TotalEdits int
}

// MapAll maps a simulated read set and scores positional correctness
// against the ground truth within the given tolerance.
func (m *Mapper) MapAll(reads [][]byte, truePos []int, tol int) ([]Mapping, Stats, error) {
	return m.MapAllContext(context.Background(), reads, truePos, tol)
}

// MapAllContext is MapAll with cancellation.
func (m *Mapper) MapAllContext(ctx context.Context, reads [][]byte, truePos []int, tol int) ([]Mapping, Stats, error) {
	if truePos != nil && len(truePos) != len(reads) {
		return nil, Stats{}, fmt.Errorf("mapper: %d reads but %d true positions", len(reads), len(truePos))
	}
	out := make([]Mapping, len(reads))
	var st Stats
	for i, r := range reads {
		mp, err := m.MapReadContext(ctx, r)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("read %d: %w", i, err)
		}
		out[i] = mp
		st.Reads++
		st.Candidates += mp.Candidates
		st.Filtered += mp.Filtered
		st.Aligned += mp.Aligned
		if mp.Mapped {
			st.Mapped++
			st.TotalEdits += mp.Distance
			if truePos != nil && abs(mp.Pos-truePos[i]) <= tol {
				st.Correct++
			}
		}
	}
	return out, st, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
