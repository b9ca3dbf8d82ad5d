package mapper

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"genasm/internal/core"
	"genasm/internal/filter"
	"genasm/internal/index"
	"genasm/internal/seq"
	"genasm/internal/simulate"
)

// strandOrderMapRead is MapRead as it was before candidates were merged
// across strands, kept as a test-only oracle: every forward-strand
// candidate is tried before the reverse strand is seeded, and the reverse
// strand is skipped once the forward one maps confidently. Region,
// prefilter, distance bound and acceptance are MapRead's.
func strandOrderMapRead(m *Mapper, read []byte) (Mapping, error) {
	var (
		ss    index.SeedScratch
		flt   filter.Scratch
		rcBuf []byte
	)
	ctx := context.Background()
	best := Mapping{Distance: int(^uint(0) >> 1)}
	maxEdits := int(float64(len(read))*m.cfg.ErrorRate) + 4
	rejectAbove := 2*maxEdits + 8
	seedLen := min(len(read), 256)
	good := func() bool { return best.Mapped && best.Distance <= maxEdits }

strands:
	for _, rc := range []bool{false, true} {
		if good() {
			break
		}
		r := read
		if rc {
			rcBuf = seq.ReverseComplement(read)
			r = rcBuf
		}
		for _, cand := range m.idx.CandidateLocationsInto(&ss, r[:seedLen], m.cfg.MaxCandidates) {
			best.Candidates++
			start := max(0, cand.Pos-16)
			end := min(len(m.ref), cand.Pos+len(r)+maxEdits+16)
			region := m.ref[start:end]
			if m.cfg.Prefilter {
				ok, err := filter.GenASMDC{}.AcceptScratch(&flt, region, r, maxEdits)
				if err != nil {
					return Mapping{}, err
				}
				if !ok {
					best.Filtered++
					continue
				}
			}
			best.Aligned++
			cg, off, err := m.cfg.Aligner.AlignRegionInto(ctx, region, r, min(rejectAbove, best.Distance-1), nil)
			if err != nil {
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
				best.Cigar = cg
			}
			if good() {
				break strands
			}
		}
	}
	if !best.Mapped {
		best.Distance = 0
	}
	return best, nil
}

// orderCase is one read set of the order tests, with the configuration
// it is mapped under. rev marks the reads drawn from the reverse strand.
type orderCase struct {
	name      string
	reads     [][]byte
	rev       []bool
	errRate   float64
	prefilter bool
}

// orderTestReads returns a genome with eight diverged copies of one 3 kbp
// segment pasted over it, and per read set the reads the order tests map:
// simulated reads on both strands, unrelated random reads, and reads drawn
// from the repeat copies, which seed candidates on several copies.
func orderTestReads(t *testing.T) (genome []byte, cases []orderCase) {
	t.Helper()
	long := func(n int) simulate.Profile {
		pr := simulate.PacBio10
		pr.ReadLen = n
		return pr
	}
	rng := rand.New(rand.NewPCG(23, 1))
	genome = seq.Genome(rng, seq.DefaultGenomeConfig(1<<20))
	const repeatLen, copies = 3000, 8
	src := rng.IntN(len(genome) - repeatLen)
	repeat := append([]byte(nil), genome[src:src+repeatLen]...)
	var copyAt []int
	for range copies {
		dst := rng.IntN(len(genome) - repeatLen)
		copyAt = append(copyAt, dst)
		copy(genome[dst:], repeat)
		for i := dst; i < dst+repeatLen; i++ {
			if rng.Float64() < 0.01 {
				genome[i] = (genome[i] + byte(1+rng.IntN(3))) % 4
			}
		}
	}
	specs := []struct {
		name      string
		profile   simulate.Profile
		nReads    int
		errRate   float64
		prefilter bool
	}{
		{"short250/prefilter", simulate.Illumina250, 120, 0.05, true},
		{"short250/no-prefilter", simulate.Illumina250, 120, 0.05, false},
		{"short100/prefilter", simulate.Illumina100, 120, 0.05, true},
		{"short100/no-prefilter", simulate.Illumina100, 120, 0.05, false},
		{"long2k", long(2000), 24, 0.10, false},
		{"long5k", long(5000), 12, 0.10, false},
		{"long10k", long(10000), 8, 0.10, false},
	}
	for _, sp := range specs {
		sim, err := simulate.Reads(rng, genome, sp.nReads, sp.profile, true)
		if err != nil {
			t.Fatal(err)
		}
		c := orderCase{name: sp.name, errRate: sp.errRate, prefilter: sp.prefilter}
		for _, r := range sim {
			c.reads = append(c.reads, r.Seq)
			c.rev = append(c.rev, r.RevComp)
		}
		for range 3 {
			c.reads = append(c.reads, seq.Random(rng, sp.profile.ReadLen))
			c.rev = append(c.rev, false)
		}
		if sp.profile.ReadLen < repeatLen {
			for i := range 6 {
				at := copyAt[i%copies]
				rep, err := simulate.Reads(rng, genome[at:at+repeatLen], 1, sp.profile, true)
				if err != nil {
					t.Fatal(err)
				}
				c.reads = append(c.reads, rep[0].Seq)
				c.rev = append(c.rev, rep[0].RevComp)
			}
		}
		cases = append(cases, c)
	}
	return genome, cases
}

// TestBestFirstMatchesStrandOrder maps every read with MapRead and with
// the strand-by-strand oracle. Taking candidates most-voted first across
// strands only reorders them, so position, strand, distance, CIGAR and
// mapped flag must be equal, and the candidates filtered and aligned may
// only drop. Some reads must drop an alignment, or the reordering went
// untested.
func TestBestFirstMatchesStrandOrder(t *testing.T) {
	genome, cases := orderTestReads(t)
	idx, err := index.Build(genome, 15)
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := New(idx, Config{ErrorRate: c.errRate, Prefilter: c.prefilter})
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range c.reads {
				got, err := m.MapRead(r)
				if err != nil {
					t.Fatal(err)
				}
				want, err := strandOrderMapRead(m, r)
				if err != nil {
					t.Fatal(err)
				}
				if got.Mapped != want.Mapped || got.Pos != want.Pos || got.RevComp != want.RevComp ||
					got.Distance != want.Distance || got.Cigar.String() != want.Cigar.String() {
					t.Fatalf("read %d: best-first %+v\nstrand order %+v", i, got, want)
				}
				if got.Aligned > want.Aligned || got.Filtered > want.Filtered || got.Candidates > want.Candidates {
					t.Fatalf("read %d: best-first tried more (candidates %d, filtered %d, aligned %d) than strand order (%d, %d, %d)",
						i, got.Candidates, got.Filtered, got.Aligned, want.Candidates, want.Filtered, want.Aligned)
				}
				if got.Aligned < want.Aligned {
					dropped++
				}
			}
		})
	}
	if dropped == 0 {
		t.Fatal("no read aligned fewer candidates than in strand order: the reordering went untested")
	}
}

// TestBestFirstSchedule pins the scheduling contract through the Trace
// hooks on the reads where it decides the work done:
//   - a forward read whose top candidate maps confidently is seeded once
//     and aligns that one candidate;
//   - a reverse read whose forward candidates all have fewer than three
//     votes seeds both strands, then aligns its top reverse-strand
//     candidate first, and — when that one maps confidently — only that
//     one.
//
// The strand-by-strand oracle picks the reads: it aligns every forward
// candidate, so its count tells which candidate mapped. The vote
// threshold is the contract's, spelled out rather than read from
// weakVotes. Each case must occur at least once.
func TestBestFirstSchedule(t *testing.T) {
	genome, cases := orderTestReads(t)
	idx, err := index.Build(genome, 15)
	if err != nil {
		t.Fatal(err)
	}
	// events records one read's hook calls in order: 's' for seeding,
	// 'a' for an alignment that produced a result, 'x' for one that did
	// not.
	var events []byte
	tr := &Trace{
		SeedingDone: func(int, int, time.Duration) { events = append(events, 's') },
		AlignDone: func(ok bool, _ time.Duration) {
			if ok {
				events = append(events, 'a')
			} else {
				events = append(events, 'x')
			}
		},
	}
	var ss index.SeedScratch
	var fwdOne, revOne int
	for _, c := range cases {
		if c.prefilter {
			continue // filter rejections would hide which candidate aligned
		}
		m, err := New(idx, Config{ErrorRate: c.errRate, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range c.reads {
			want, err := strandOrderMapRead(m, r)
			if err != nil {
				t.Fatal(err)
			}
			maxEdits := int(float64(len(r))*c.errRate) + 4
			if !want.Mapped || want.Distance > maxEdits {
				continue
			}
			fwd := idx.CandidateLocationsInto(&ss, r[:min(len(r), 256)], m.cfg.MaxCandidates)
			var wantEvents string
			switch {
			case !c.rev[i] && !want.RevComp && want.Aligned == 1 && fwd[0].Votes >= 3:
				wantEvents = "sa"
				fwdOne++
			case c.rev[i] && want.RevComp && len(fwd) > 0 && fwd[0].Votes < 3 && want.Aligned == len(fwd)+1:
				wantEvents = "ssa"
				revOne++
			default:
				continue
			}
			events = events[:0]
			got, err := m.MapRead(r)
			if err != nil {
				t.Fatal(err)
			}
			if string(events) != wantEvents || got.Aligned != 1 || got.RevComp != want.RevComp || got.Pos != want.Pos {
				t.Fatalf("%s read %d: hooks %q, want %q; mapping %+v, strand order %+v", c.name, i, events, wantEvents, got, want)
			}
		}
	}
	if fwdOne == 0 || revOne == 0 {
		t.Fatalf("contract cases went unexercised: %d forward reads mapped by their top candidate, %d reverse reads with only weak forward candidates", fwdOne, revOne)
	}
	t.Logf("%d forward reads seeded once, %d reverse reads skipped their weak forward candidates", fwdOne, revOne)
}
