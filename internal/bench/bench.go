// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (Section 10) at laptop scale.
// Each experiment prints the same rows/series the paper reports, with
// three kinds of numbers side by side:
//
//   - measured: wall-clock results of the Go implementations in this
//     repository (GenASM algorithms and reimplemented baselines);
//   - modelled: the calibrated hardware performance model of internal/hw;
//   - paper: the numbers reported in the paper, for shape comparison.
//
// Workloads are deterministic (seeded) and scaled down from the paper's
// dataset sizes; the scale is printed with each table.
package bench

import (
	"math/rand/v2"
	"time"

	"genasm/internal/seq"
	"genasm/internal/simulate"
)

// Scale controls workload sizes. The zero value selects defaults sized to
// run the full harness in about a minute.
type Scale struct {
	// LongReads per long-read dataset (default 3).
	LongReads int
	// ShortReads per short-read dataset (default 200).
	ShortReads int
	// FilterPairs per filtering dataset (default 400).
	FilterPairs int
	// EditDistLen is the longest edit distance sequence length
	// (default 100000; the paper uses 100 kbp and 1 Mbp).
	EditDistLen int
	// PipelineReads per dataset for the end-to-end pipeline comparison
	// (default 30 short / 2 long).
	PipelineReads int
	// GenomeLen of the synthetic reference (default 400000).
	GenomeLen int
	// Seed for all generators.
	Seed uint64
}

func (s Scale) withDefaults() Scale {
	if s.LongReads == 0 {
		s.LongReads = 3
	}
	if s.ShortReads == 0 {
		s.ShortReads = 200
	}
	if s.FilterPairs == 0 {
		s.FilterPairs = 400
	}
	if s.EditDistLen == 0 {
		s.EditDistLen = 100000
	}
	if s.PipelineReads == 0 {
		s.PipelineReads = 30
	}
	if s.GenomeLen == 0 {
		s.GenomeLen = 400000
	}
	if s.Seed == 0 {
		s.Seed = 20200918 // GenASM's arXiv v1 date
	}
	return s
}

// Tiny returns a scale small enough for unit tests of the harness itself.
func Tiny() Scale {
	return Scale{
		LongReads:     1,
		ShortReads:    20,
		FilterPairs:   40,
		EditDistLen:   5000,
		PipelineReads: 5,
		GenomeLen:     100000,
		Seed:          7,
	}
}

// rng derives a deterministic generator for a named experiment.
func (s Scale) rng(salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(s.Seed, salt))
}

// genome builds the shared synthetic reference.
func (s Scale) genome(salt uint64) []byte {
	return seq.Genome(s.rng(salt), seq.DefaultGenomeConfig(s.GenomeLen))
}

// alignmentCase is one (region, read) pair ready for alignment.
type alignmentCase struct {
	region []byte
	read   []byte
}

// alignmentCases draws reads under the profile and pairs each with its
// true candidate region (read alignment's input after seeding+filtering).
func (s Scale) alignmentCases(salt uint64, n int, p simulate.Profile) ([]alignmentCase, error) {
	g := s.genome(salt)
	reads, err := simulate.Reads(s.rng(salt+1), g, n, p, false)
	if err != nil {
		return nil, err
	}
	cases := make([]alignmentCase, len(reads))
	for i, r := range reads {
		cases[i] = alignmentCase{
			region: simulate.CandidateRegion(g, r.Pos, len(r.Seq), p.ErrorRate),
			read:   r.Seq,
		}
	}
	return cases, nil
}

// timeIt measures fn over the cases and returns total duration.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// mutatePair returns a mutated copy of s with approximately the requested
// similarity (the Edlib dataset construction of Section 9: original
// sequences plus artificially-mutated versions with similarity 60-99%).
func mutatePair(rng *rand.Rand, s []byte, similarity float64) []byte {
	out := append([]byte(nil), s...)
	edits := int(float64(len(s)) * (1 - similarity))
	for e := 0; e < edits; e++ {
		switch rng.IntN(3) {
		case 0:
			p := rng.IntN(len(out))
			out[p] = (out[p] + byte(1+rng.IntN(3))) % 4
		case 1:
			p := rng.IntN(len(out) + 1)
			out = append(out[:p], append([]byte{byte(rng.IntN(4))}, out[p:]...)...)
		default:
			if len(out) > 1 {
				p := rng.IntN(len(out))
				out = append(out[:p], out[p+1:]...)
			}
		}
	}
	return out
}
