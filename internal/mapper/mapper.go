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
type Aligner interface {
	AlignRegionInto(ctx context.Context, region, read []byte, buf cigar.Cigar) (cigar.Cigar, int, error)
}

// PoolAligner is the GenASM alignment step: each candidate draws a
// workspace from a pool, so one Mapper is safe for concurrent use and a
// saturated pool returns ctx.Err() instead of blocking forever. The pool's
// workspaces must search for the alignment start within the first window
// (core.Config.FindFirstWindowStart), since candidate regions carry
// leading slack for anchor imprecision.
type PoolAligner struct {
	Pool *pool.Pool
}

// AlignRegionInto implements Aligner: the arena CIGAR is copied into buf
// while the workspace is still checked out, so the per-candidate alignment
// step allocates nothing.
func (a PoolAligner) AlignRegionInto(ctx context.Context, region, read []byte, buf cigar.Cigar) (cigar.Cigar, int, error) {
	var start int
	err := a.Pool.Do(ctx, func(ws *core.Workspace) error {
		aln, err := ws.Align(region, read)
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

// AlignRegionInto implements Aligner.
func (a DPAligner) AlignRegionInto(_ context.Context, region, read []byte, buf cigar.Cigar) (cigar.Cigar, int, error) {
	sc := a.Scoring
	if sc == (cigar.Scoring{}) {
		sc = cigar.Minimap2
	}
	res := dp.Align(region, read, sc, dp.Fit, a.Band)
	return res.Cigar.CloneInto(buf), res.TextStart, nil
}

// Config parameterizes the pipeline. The seeding parameters (seed length,
// minimizer window) belong to the seed index the Mapper is built over.
type Config struct {
	// MaxCandidates bounds the candidate locations tried per strand
	// (default 8).
	MaxCandidates int
	// ErrorRate is the expected sequencing error rate, used for region
	// slack and the filtering threshold (default 0.10).
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
// reverse-complement buffer, the seeding vote maps and candidate list, the
// pre-alignment filter's searcher, and a CIGAR double-buffer (the current
// candidate's alignment and the best one kept so far). One scratch serves
// one in-flight MapRead; the Mapper pools them so steady-state mapping
// performs no per-read scratch allocations.
type mapScratch struct {
	rc   []byte
	seed index.SeedScratch
	flt  filter.Scratch
	cur  cigar.Cigar
	best cigar.Cigar
}

// Mapper maps reads against an indexed reference. It is safe for
// concurrent use when its Aligner is (per-read scratch is pooled
// internally; the default Aligner draws workspaces from a pool).
type Mapper struct {
	cfg     Config
	idx     index.SeedIndex
	ref     []byte
	k       int       // seed length, the shortest mappable read
	scratch sync.Pool // of *mapScratch
}

// New returns a Mapper over a prebuilt seed index — any SeedIndex backend,
// built in memory or loaded from an index file.
func New(idx index.SeedIndex, cfg Config) (*Mapper, error) {
	if cfg.MaxCandidates == 0 {
		cfg.MaxCandidates = 8
	}
	if cfg.ErrorRate == 0 {
		cfg.ErrorRate = 0.10
	}
	if cfg.Aligner == nil {
		p, err := pool.New(pool.Config{Core: core.Config{FindFirstWindowStart: true}})
		if err != nil {
			return nil, err
		}
		cfg.Aligner = PoolAligner{Pool: p}
	}
	return &Mapper{cfg: cfg, idx: idx, ref: idx.Ref(), k: idx.Stats().K}, nil
}

// MapRead maps one encoded read, trying both strands, and returns the
// lowest-edit-distance alignment across all surviving candidates.
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
	// stop scanning further candidates (and skip the other strand), as
	// production mappers do once the best chain is aligned.
	good := func() bool { return best.Mapped && best.Distance <= maxEdits }

strands:
	for _, rc := range []bool{false, true} {
		if good() {
			break
		}
		r := read
		if rc {
			s.rc = seq.AppendReverseComplement(s.rc[:0], read)
			r = s.rc
		}
		seedStart := tr.now(tr != nil && tr.SeedingDone != nil)
		cands := m.idx.CandidateLocationsInto(&s.seed, r[:seedLen], m.cfg.MaxCandidates)
		if tr != nil && tr.SeedingDone != nil {
			seeds := 0
			for _, c := range cands {
				seeds += c.Votes
			}
			tr.SeedingDone(seeds, len(cands), time.Since(seedStart))
		}
		for _, cand := range cands {
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
			alignStart := tr.now(tr != nil && tr.AlignDone != nil)
			cg, off, err := m.cfg.Aligner.AlignRegionInto(ctx, region, r, s.cur)
			if tr != nil && tr.AlignDone != nil {
				tr.AlignDone(err == nil, time.Since(alignStart))
			}
			s.cur = cg // keep the (possibly grown) buffer either way
			if err != nil {
				// Cancellation must surface; so must a quarantined panic
				// (the pooled workspace is gone, retrying candidates on a
				// fresh one would mask real corruption). A single
				// over-budget candidate is not fatal and the next one is
				// tried.
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
			if good() {
				break strands
			}
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
