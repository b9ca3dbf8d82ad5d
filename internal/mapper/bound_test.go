package mapper

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"genasm/internal/cigar"
	"genasm/internal/core"
	"genasm/internal/pool"
	"genasm/internal/seq"
	"genasm/internal/simulate"
)

// unboundedAligner is PoolAligner with the distance bound switched off:
// every candidate is aligned to its end, whatever the pipeline would
// accept. It records the bound the pipeline asked for and the distance
// each candidate really had.
type unboundedAligner struct {
	PoolAligner
	calls *[]boundCall
}

// boundCall is one recorded alignment: the bound passed and the
// unbounded distance (-1 when the alignment failed).
type boundCall struct{ maxDist, dist int }

func (a unboundedAligner) AlignRegionInto(ctx context.Context, region, read []byte, maxDist int, buf cigar.Cigar) (cigar.Cigar, int, error) {
	cg, start, err := a.PoolAligner.AlignRegionInto(ctx, region, read, -1, buf)
	d := -1
	if err == nil {
		d = cg.EditDistance()
	}
	*a.calls = append(*a.calls, boundCall{maxDist, d})
	return cg, start, err
}

// checkBounds replays the pipeline's acceptance rule over one read's
// recorded alignments: each bound must be rejectAbove until a candidate
// maps, then one below the best distance so far (capped at rejectAbove).
// It returns how many bounds came from a best mapping.
func checkBounds(t *testing.T, read int, calls []boundCall, rejectAbove int) (fromBest int) {
	t.Helper()
	best := -1
	for i, c := range calls {
		want := rejectAbove
		if best >= 0 {
			want = min(want, best-1)
			fromBest++
		}
		if c.maxDist != want {
			t.Fatalf("read %d alignment %d: bound %d, want %d (calls %v)", read, i, c.maxDist, want, calls)
		}
		if c.dist >= 0 && c.dist <= rejectAbove && (best < 0 || c.dist < best) {
			best = c.dist
		}
	}
	return fromBest
}

// TestDistanceBoundKeepsMappings maps the same reads with the default
// (bounded) aligner and with an unbounded one: the bound only stops
// candidates the pipeline would discard, so every Mapping — position,
// strand, CIGAR, distance and the candidate, filter and align counts —
// must be equal, and every bound passed must be exactly the one past which
// the pipeline discards a result. Half the reads come from the reverse
// strand, and a few unrelated reads map nowhere at all. The rejections
// the bound cuts short come from those unrelated reads and from the
// candidates tried after a mapping above the expected error budget, plus
// the odd higher-voted candidate that does not align. A reverse read's
// weak forward-strand hits are no longer among them: MapRead tries the
// stronger reverse-strand candidate first and stops there.
func TestDistanceBoundKeepsMappings(t *testing.T) {
	p, err := pool.New(pool.Config{Core: core.Config{FindFirstWindowStart: true}})
	if err != nil {
		t.Fatal(err)
	}
	var calls []boundCall
	unbounded := unboundedAligner{PoolAligner{Pool: p}, &calls}
	long := func(n int) simulate.Profile {
		pr := simulate.PacBio10
		pr.ReadLen = n
		return pr
	}
	cases := []struct {
		name      string
		profile   simulate.Profile
		nReads    int
		errRate   float64
		prefilter bool
	}{
		{"short/prefilter", simulate.Illumina250, 150, 0.05, true},
		{"short/no-prefilter", simulate.Illumina250, 150, 0.05, false},
		{"short100/no-prefilter", simulate.Illumina100, 150, 0.05, false},
		{"long2k", long(2000), 30, 0.10, false},
		{"long5k", long(5000), 16, 0.10, false},
		{"long10k", long(10000), 10, 0.10, false},
	}
	totalFromBest := 0
	rng := rand.New(rand.NewPCG(18, 18))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(300_000))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim, err := simulate.Reads(rng, genome, c.nReads, c.profile, true)
			if err != nil {
				t.Fatal(err)
			}
			reads := make([][]byte, 0, len(sim)+3)
			for _, r := range sim {
				reads = append(reads, r.Seq)
			}
			for range 3 {
				reads = append(reads, seq.Random(rng, c.profile.ReadLen))
			}
			cfg := Config{ErrorRate: c.errRate, Prefilter: c.prefilter}
			bounded := newMapper(t, genome, cfg)
			cfg.Aligner = unbounded
			full := newMapper(t, genome, cfg)
			var rc, rejected, fromBest int
			for i, r := range reads {
				got, err := bounded.MapRead(r)
				if err != nil {
					t.Fatal(err)
				}
				calls = calls[:0]
				want, err := full.MapRead(r)
				if err != nil {
					t.Fatal(err)
				}
				maxEdits := int(float64(len(r))*c.errRate) + 4
				fromBest += checkBounds(t, i, calls, 2*maxEdits+8)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("read %d: bounded %+v\nunbounded %+v", i, got, want)
				}
				if got.RevComp {
					rc++
				}
				if got.Aligned > 1 || (got.Aligned == 1 && !got.Mapped) {
					rejected++
				}
			}
			// With the prefilter on, wrong candidates rarely reach the
			// aligner at all.
			if rc == 0 || (rejected == 0 && !c.prefilter) {
				t.Fatalf("inputs too easy: %d reverse-strand mappings, %d reads with a rejected alignment", rc, rejected)
			}
			totalFromBest += fromBest
		})
	}
	if totalFromBest == 0 {
		t.Fatal("no candidate was aligned after a mapping: the best-distance bound went untested")
	}
}

// TestDPAlignerDistanceBound checks the Aligner contract on the DP step,
// which aligns in full and then applies the bound: at maxDist >= d the
// result equals the unbounded one, below d the call returns
// core.ErrDistanceBound.
func TestDPAlignerDistanceBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 2))
	a := DPAligner{Band: 40}
	ctx := context.Background()
	for trial := range 20 {
		region := seq.Random(rng, 300)
		read := seq.Random(rng, 250)
		if trial%2 == 0 {
			// On target: the region's middle with a substitution every
			// 20 bases.
			read = append(read[:0], region[16:266]...)
			for i := trial; i < len(read); i += 20 {
				read[i] = (read[i] + 1) % 4
			}
		}
		want, wantStart, err := a.AlignRegionInto(ctx, region, read, -1, nil)
		if err != nil {
			t.Fatal(err)
		}
		d := want.EditDistance()
		for _, maxDist := range []int{0, d - 1, d, d + 1} {
			if maxDist < 0 {
				continue
			}
			label := fmt.Sprintf("trial %d (d=%d) maxDist=%d", trial, d, maxDist)
			got, start, err := a.AlignRegionInto(ctx, region, read, maxDist, nil)
			if d > maxDist {
				if err != core.ErrDistanceBound {
					t.Fatalf("%s: err %v, want ErrDistanceBound", label, err)
				}
				continue
			}
			if err != nil || start != wantStart || got.String() != want.String() {
				t.Fatalf("%s: got %s at %d (%v), want %s at %d", label, got, start, err, want, wantStart)
			}
		}
	}
}
