package genasm

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (Section 10). Each benchmark measures the per-item
// cost of the workload the figure is about; `cmd/genasm-bench` prints the
// corresponding full tables (paper rows next to measured/modelled values).
//
// Run all with: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genasm/internal/alphabet"
	"genasm/internal/cigar"
	"genasm/internal/core"
	"genasm/internal/dp"
	"genasm/internal/filter"
	"genasm/internal/gact"
	"genasm/internal/hw"
	"genasm/internal/index"
	"genasm/internal/mapper"
	"genasm/internal/metrics"
	"genasm/internal/myers"
	"genasm/internal/seq"
	"genasm/internal/simulate"
)

// metricsMapTrace builds a MapTrace backed by live metric instruments —
// the same shape the HTTP server attaches — so traced benchmarks and the
// alloc-budget test measure the production observability cost, not a
// no-op stub.
func metricsMapTrace() *MapTrace {
	r := metrics.New()
	seeds := r.Counter("seeds_total", "seed hits")
	cands := r.Counter("candidates_total", "candidates")
	filtered := r.Counter("filtered_total", "filter rejections")
	accepted := r.Counter("accepted_total", "filter passes")
	reads := r.Counter("reads_total", "reads")
	mapped := r.Counter("mapped_total", "mapped reads")
	stage := r.HistogramVec("stage_seconds", "stage time", nil, "stage")
	seedH, filterH, alignH := stage.With("seed"), stage.With("filter"), stage.With("align")
	readH := r.Histogram("read_seconds", "read time", nil)
	return &MapTrace{
		SeedingDone: func(s, c int, d time.Duration) {
			seeds.Add(uint64(s))
			cands.Add(uint64(c))
			seedH.Observe(d.Seconds())
		},
		FilterDone: func(ok bool, d time.Duration) {
			if ok {
				accepted.Inc()
			} else {
				filtered.Inc()
			}
			filterH.Observe(d.Seconds())
		},
		AlignDone: func(ok bool, d time.Duration) { alignH.Observe(d.Seconds()) },
		ReadDone: func(c, f, a int, ok bool, d time.Duration) {
			reads.Inc()
			if ok {
				mapped.Inc()
			}
			readH.Observe(d.Seconds())
		},
	}
}

// newBenchMapper builds the GenASM-based mapping pipeline used by the
// Figure 11 benchmark (indexing happens here, outside the timed loop).
func newBenchMapper(b *testing.B, genome []byte) *mapper.Mapper {
	b.Helper()
	idx, err := index.Build(genome, 15)
	if err != nil {
		b.Fatal(err)
	}
	m, err := mapper.New(idx, mapper.Config{ErrorRate: 0.05, Prefilter: true})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchCase builds one (region, read) pair for a profile.
func benchCase(b *testing.B, p simulate.Profile, salt uint64) (region, read []byte) {
	b.Helper()
	rng := rand.New(rand.NewPCG(2020, salt))
	genome := seq.Random(rng, p.ReadLen*3+4000)
	reads, err := simulate.Reads(rng, genome, 1, p, false)
	if err != nil {
		b.Fatal(err)
	}
	r := reads[0]
	return simulate.CandidateRegion(genome, r.Pos, len(r.Seq), p.ErrorRate), r.Seq
}

// BenchmarkTable1AreaPower exercises the Table 1 area/power model.
func BenchmarkTable1AreaPower(b *testing.B) {
	cfg := hw.Default()
	for i := 0; i < b.N; i++ {
		total := cfg.Total()
		if total.AreaMM2 < 10 {
			b.Fatal("model broke")
		}
	}
}

// BenchmarkFig9LongReadAlignment measures the Figure 9 workload: aligning
// one long read per dataset, GenASM vs the DP software baseline.
func BenchmarkFig9LongReadAlignment(b *testing.B) {
	for pi, p := range simulate.LongReadProfiles {
		region, read := benchCase(b, p, uint64(pi))
		k := int(float64(p.ReadLen)*p.ErrorRate) + 8
		b.Run("GenASM/"+p.Name, func(b *testing.B) {
			ws := core.MustNew(core.Config{FindFirstWindowStart: true})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ws.Align(region, read); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("DPBaseline/"+p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dp.Align(region, read, cigar.Minimap2, dp.Fit, k+16)
			}
		})
	}
}

// BenchmarkFig10ShortReadAlignment measures the Figure 10 workload.
func BenchmarkFig10ShortReadAlignment(b *testing.B) {
	for pi, p := range simulate.ShortReadProfiles {
		region, read := benchCase(b, p, uint64(10+pi))
		k := int(float64(p.ReadLen)*p.ErrorRate) + 8
		b.Run("GenASM/"+p.Name, func(b *testing.B) {
			ws := core.MustNew(core.Config{FindFirstWindowStart: true})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ws.Align(region, read); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("DPBaseline/"+p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dp.Align(region, read, cigar.BWAMEM, dp.Fit, k+16)
			}
		})
	}
}

// BenchmarkFig11Pipeline measures the end-to-end mapping cost per read
// with the GenASM alignment step (Figure 11's "with GenASM" pipelines).
func BenchmarkFig11Pipeline(b *testing.B) {
	rng := rand.New(rand.NewPCG(2021, 0))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(200000))
	reads, err := simulate.Reads(rng, genome, 50, simulate.Illumina250, false)
	if err != nil {
		b.Fatal(err)
	}
	// Indexing happens in newBenchMapper, outside the timed loop.
	m := newBenchMapper(b, genome)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reads[i%len(reads)]
		if _, err := m.MapRead(r.Seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12VsGACTLong measures GenASM vs GACT software on long
// sequences (Figure 12's axis).
func BenchmarkFig12VsGACTLong(b *testing.B) {
	for _, length := range []int{1000, 5000, 10000} {
		rng := rand.New(rand.NewPCG(2022, uint64(length)))
		text := seq.Random(rng, length+length*15/100+16)
		read := mutateBench(rng, text[:length], 0.15)
		b.Run(fmt.Sprintf("GenASM/%dbp", length), func(b *testing.B) {
			ws := core.MustNew(core.Config{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ws.Align(text, read); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("GACT/%dbp", length), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gact.Align(text, read, gact.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13VsGACTShort is Figure 13's short-read axis.
func BenchmarkFig13VsGACTShort(b *testing.B) {
	for _, length := range []int{100, 200, 300} {
		rng := rand.New(rand.NewPCG(2023, uint64(length)))
		text := seq.Random(rng, length+length*5/100+16)
		read := mutateBench(rng, text[:length], 0.05)
		b.Run(fmt.Sprintf("GenASM/%dbp", length), func(b *testing.B) {
			ws := core.MustNew(core.Config{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ws.Align(text, read); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("GACT/%dbp", length), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gact.Align(text, read, gact.Config{TileSize: 64, Overlap: 24}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig14EditDistance measures the Figure 14 edit distance
// workload: Myers (Edlib's algorithm) vs GenASM on long pairs.
func BenchmarkFig14EditDistance(b *testing.B) {
	for _, sim := range []float64{0.90, 0.99} {
		rng := rand.New(rand.NewPCG(2024, uint64(sim*100)))
		a := seq.Random(rng, 20000)
		pair := mutateBench(rng, a, 1-sim)
		b.Run(fmt.Sprintf("Myers/sim%.0f%%", sim*100), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := myers.Distance(a, pair, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("GenASM/sim%.0f%%", sim*100), func(b *testing.B) {
			ws := core.MustNew(core.Config{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ws.EditDistance(a, pair); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShoujiFilter measures the Section 10.3 filtering workload for
// every implemented filter at the 100bp/E=5 dataset shape.
func BenchmarkShoujiFilter(b *testing.B) {
	rng := rand.New(rand.NewPCG(2025, 0))
	pairs := filter.GeneratePairs(rng, 64, 100, 5, dp.EditDistance)
	for _, f := range []filter.Filter{filter.GenASMDC{}, filter.Shouji{}, filter.SHD{}, filter.BaseCount{}} {
		b.Run(f.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := f.Accept(p.Ref, p.Read, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkASAPRange measures GenASM edit distance at ASAP's sequence
// lengths (Section 10.4).
func BenchmarkASAPRange(b *testing.B) {
	for _, length := range []int{64, 320} {
		rng := rand.New(rand.NewPCG(2026, uint64(length)))
		a := seq.Random(rng, length)
		pair := mutateBench(rng, a, 0.05)
		b.Run(fmt.Sprintf("%dbp", length), func(b *testing.B) {
			ws := core.MustNew(core.Config{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ws.EditDistance(a, pair); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWindowing measures the Section 10.5 windowing ablation
// in software: windowed GenASM vs the non-windowed multi-word scan, on a
// 2 kbp read (the unwindowed variant is quadratic in read length and
// already orders of magnitude slower here).
func BenchmarkAblationWindowing(b *testing.B) {
	region, read := benchCase(b, simulate.Profile{
		Name: "2kbp-10%", ReadLen: 2000, ErrorRate: 0.10,
		SubFrac: 0.25, InsFrac: 0.25, DelFrac: 0.50,
	}, 99)
	b.Run("Windowed", func(b *testing.B) {
		ws := core.MustNew(core.Config{FindFirstWindowStart: true})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ws.Align(region, read); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Unwindowed", func(b *testing.B) {
		f := filter.GenASMDC{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.Accept(region, read, 220); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAdaptive measures the software-only adaptive error
// level optimization (DESIGN.md Section 5).
func BenchmarkAblationAdaptive(b *testing.B) {
	region, read := benchCase(b, simulate.Illumina150, 98)
	for _, cfg := range []struct {
		name string
		c    core.Config
	}{
		{"Adaptive", core.Config{}},
		{"AllLevels", core.Config{NoAdaptive: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			ws := core.MustNew(cfg.c)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ws.Align(region, read); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlign is the kernel-comparison benchmark the CI regression
// gate tracks: the core Align hot path (DC + TB, no encoding, no pool) on
// a short and a long read, under the baseline per-edge-store kernel and
// the Scrooge kernel (SENE entries, level-major scan). One untimed Align
// grows the workspace's CIGAR scratch first, so B/op reads what every
// call allocates rather than one-time growth divided by b.N.
func BenchmarkAlign(b *testing.B) {
	cases := []struct {
		name             string
		refLen, readLen  int
		subs, inss, dels int
	}{
		{"short100bp", 120, 100, 3, 1, 1},
		{"long10kbp", 11500, 10000, 500, 250, 250},
	}
	for _, kern := range []core.Kernel{core.KernelBaseline, core.KernelScrooge} {
		for _, c := range cases {
			b.Run(fmt.Sprintf("kernel=%s/%s", kern, c.name), func(b *testing.B) {
				rng := rand.New(rand.NewPCG(77, uint64(c.readLen)))
				ref := seq.Random(rng, c.refLen)
				read := append([]byte(nil), ref[:c.readLen]...)
				read = mutateBench(rng, read, float64(c.subs+c.inss+c.dels)/float64(c.readLen))
				ws := core.MustNew(core.Config{Kernel: kern})
				if _, err := ws.Align(ref, read); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ws.Align(ref, read); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMapper is the end-to-end mapping benchmark the CI regression
// gate tracks: the public Mapper (seeding + filtering + GenASM alignment +
// pool) mapping short reads against an indexed reference.
func BenchmarkMapper(b *testing.B) {
	rng := rand.New(rand.NewPCG(2030, 0))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(200000))
	reads, err := simulate.Reads(rng, genome, 50, simulate.Illumina250, false)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	m, err := e.NewMapper(alphabetDecode(genome), MapperConfig{SeedParams: SeedParams{SeedK: 15}, ErrorRate: 0.05, Prefilter: true})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Decode to letters outside the timed loop: input preparation is the
	// caller's cost, and keeping it out lets the allocs/op gate measure
	// the mapping pipeline itself.
	letters := make([][]byte, len(reads))
	for i, r := range reads {
		letters[i] = alphabetDecode(r.Seq)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MapRead(ctx, letters[i%len(letters)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapperLong is the long-read end-to-end mapping benchmark the
// CI regression gate tracks beside BenchmarkMapper: the public Mapper
// mapping 10 kbp PacBio reads at 10% error, half of them from the reverse
// strand, with no pre-alignment filter. The alignment kernel and the
// order candidates are tried in dominate it.
func BenchmarkMapperLong(b *testing.B) {
	rng := rand.New(rand.NewPCG(2030, 1))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(1_000_000))
	reads, err := simulate.Reads(rng, genome, 32, simulate.PacBio10, true)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	m, err := e.NewMapper(alphabetDecode(genome), MapperConfig{SeedParams: SeedParams{SeedK: 15}, ErrorRate: 0.10})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	letters := make([][]byte, len(reads))
	for i, r := range reads {
		letters[i] = alphabetDecode(r.Seq)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MapRead(ctx, letters[i%len(letters)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteSAM is the output path the CI regression gate tracks:
// one op writes the SAM of 32 mapped 10 kbp PacBio reads at 10% error
// (BenchmarkMapperLong's reads, header included) to io.Discard, so it
// measures CIGAR rendering, sequence decoding and line building alone.
func BenchmarkWriteSAM(b *testing.B) {
	rng := rand.New(rand.NewPCG(2030, 1))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(1_000_000))
	reads, err := simulate.Reads(rng, genome, 32, simulate.PacBio10, true)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	m, err := e.NewMapper(alphabetDecode(genome), MapperConfig{SeedParams: SeedParams{SeedK: 15}, ErrorRate: 0.10})
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]Read, len(reads))
	for i, r := range reads {
		batch[i] = Read{Name: fmt.Sprintf("pacbio%d", i), Seq: alphabetDecode(r.Seq)}
	}
	mappings, err := m.MapReads(context.Background(), batch)
	if err != nil {
		b.Fatal(err)
	}
	for i, mp := range mappings {
		if !mp.Mapped {
			b.Fatalf("read %d did not map", i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteSAM(io.Discard, mappings); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapperTraced measures the observability overhead on the
// BenchmarkMapper workload: the same pipeline untraced and with the
// metrics-backed MapTrace the HTTP server attaches. The acceptance gate
// keeps Traced within ~2% of Untraced.
func BenchmarkMapperTraced(b *testing.B) {
	for _, tc := range []struct {
		name  string
		trace *MapTrace
	}{
		{"Untraced", nil},
		{"Traced", metricsMapTrace()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(2030, 0))
			genome := seq.Genome(rng, seq.DefaultGenomeConfig(200000))
			reads, err := simulate.Reads(rng, genome, 50, simulate.Illumina250, false)
			if err != nil {
				b.Fatal(err)
			}
			e, err := NewEngine()
			if err != nil {
				b.Fatal(err)
			}
			m, err := e.NewMapper(alphabetDecode(genome), MapperConfig{
				SeedParams: SeedParams{SeedK: 15}, ErrorRate: 0.05, Prefilter: true, Trace: tc.trace,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			letters := make([][]byte, len(reads))
			for i, r := range reads {
				letters[i] = alphabetDecode(r.Seq)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.MapRead(ctx, letters[i%len(letters)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchStreamJobs builds the 1k-job workload BenchmarkAlignStream and the
// CI regression gate track: short-read-sized global alignments.
func benchStreamJobs(b *testing.B) []BatchJob {
	b.Helper()
	rng := rand.New(rand.NewPCG(2031, 0))
	jobs := make([]BatchJob, 1000)
	for i := range jobs {
		enc := seq.Random(rng, 150)
		jobs[i] = BatchJob{
			Text:   alphabetDecode(enc),
			Query:  alphabetDecode(mutateBench(rng, enc, 0.05)),
			Global: true,
		}
	}
	return jobs
}

// BenchmarkAlignStream compares the iterator stream core against the
// slice batch API (itself a wrapper over the stream) on a 1k-job
// workload: the streaming overhead — channel hops, the ordered-mode
// reorder buffer — must stay within 10% of AlignBatch, and Unordered is
// the throughput ceiling. One op is the whole 1k-job workload.
func BenchmarkAlignStream(b *testing.B) {
	e, err := NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	jobs := benchStreamJobs(b)
	ctx := context.Background()
	b.Run("Batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			results, err := e.AlignBatch(ctx, jobs)
			if err != nil {
				b.Fatal(err)
			}
			if results[0].Err != nil {
				b.Fatal(results[0].Err)
			}
		}
	})
	b.Run("Stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for res := range e.AlignStream(ctx, slices.Values(jobs)) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				n++
			}
			if n != len(jobs) {
				b.Fatalf("stream emitted %d results", n)
			}
		}
	})
	b.Run("StreamUnordered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for res := range e.AlignStream(ctx, slices.Values(jobs), Unordered()) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				n++
			}
			if n != len(jobs) {
				b.Fatalf("stream emitted %d results", n)
			}
		}
	})
}

// BenchmarkPublicAPI measures the letter-level public Align path on a
// one-workspace Engine.
func BenchmarkPublicAPI(b *testing.B) {
	e, err := NewEngine(WithMaxWorkspaces(1), WithShards(1))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	text := []byte("TTACGGATCGTTGCAATCGGATCGATTACAGGCTTAACGGATCCTAGGACCAGTTACGGATCGTTGCAATCGGATCGATTACAGGCTTAACGGATCCTAGGACCAG")
	query := []byte("TTACGGATCGTTGCAATCGGATCGATTACAGGCTTAACGGATCCTAGGACCAG")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Align(ctx, text, query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolThroughput is the serving-path baseline: concurrent
// alignment throughput through one shared Engine at 1/2/4/8 workers
// against a sequential loop over a one-workspace Engine. This is the software rendition of the
// paper's vault-count scaling (Section 10.5: throughput scales with the
// number of GenASM units); speedups need as many cores as workers.
func BenchmarkPoolThroughput(b *testing.B) {
	rng := rand.New(rand.NewPCG(2027, 1))
	const nPairs = 64
	texts := make([][]byte, nPairs)
	queries := make([][]byte, nPairs)
	for i := range texts {
		enc := seq.Random(rng, 1000)
		texts[i] = alphabetDecode(enc)
		queries[i] = alphabetDecode(mutateBench(rng, enc, 0.05))
	}

	ctx := context.Background()
	b.Run("Sequential", func(b *testing.B) {
		e, err := NewEngine(WithMaxWorkspaces(1), WithShards(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.AlignGlobal(ctx, texts[i%nPairs], queries[i%nPairs]); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("Pool/workers=%d", workers), func(b *testing.B) {
			e, err := NewEngine(WithMaxWorkspaces(workers), WithShards(workers))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1) - 1)
						if i >= b.N {
							return
						}
						if _, err := e.AlignGlobal(ctx, texts[i%nPairs], queries[i%nPairs]); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkCompiledSearch quantifies the CompiledPattern amortization win:
// one pattern scanning many short records (the adapter-trimming shape of
// repeated-pattern scanning), per-call Engine.Search vs the compiled form.
// Per-call Search re-encodes the pattern and regenerates its bitmasks —
// for the 256-letter Bytes alphabet, a full mask-table rebuild — on every
// record; Compile does that work once.
func BenchmarkCompiledSearch(b *testing.B) {
	rng := rand.New(rand.NewPCG(2028, 0))
	e, err := NewEngine(WithAlphabet(Bytes))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	// 64 records of 160 bytes, each containing one mutated copy of the
	// 96-byte pattern.
	pattern := make([]byte, 96)
	for i := range pattern {
		pattern[i] = byte(32 + rng.IntN(95))
	}
	const nTexts = 64
	texts := make([][]byte, nTexts)
	for i := range texts {
		tx := make([]byte, 160)
		for j := range tx {
			tx[j] = byte(32 + rng.IntN(95))
		}
		copy(tx[rng.IntN(60):], pattern)
		tx[80] = '!'
		texts[i] = tx
	}
	const k = 2

	b.Run("PerCall", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Search(ctx, texts[i%nTexts], pattern, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Compiled", func(b *testing.B) {
		cp, err := e.Compile(pattern, k)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cp.Search(ctx, texts[i%nTexts]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// alphabetDecode maps dense DNA codes back to letters for the public API.
func alphabetDecode(codes []byte) []byte {
	return alphabet.DNA.Decode(codes)
}

func mutateBench(rng *rand.Rand, s []byte, errRate float64) []byte {
	out := append([]byte(nil), s...)
	edits := int(float64(len(s)) * errRate)
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

// benchIndexConfigs enumerates the full and the minimizer-sampled index
// with the canonical build parameters `genasm index build` exposes; the
// sub-bench names ("backend=hash", ...) are shared by the three index
// benchmarks so benchstat lines up build, load and lookup per kind.
var benchIndexConfigs = []struct {
	name string
	cfg  RefIndexConfig
}{
	{"backend=hash", RefIndexConfig{SeedParams: SeedParams{SeedK: 15}}},
	{"backend=minimizer", RefIndexConfig{SeedParams: SeedParams{SeedK: 15, MinimizerW: 10}}},
}

// benchIndexRef builds the 200kb reference the index benchmarks share
// (same genome shape as BenchmarkMapper).
func benchIndexRef() []byte {
	rng := rand.New(rand.NewPCG(2032, 0))
	return alphabetDecode(seq.Genome(rng, seq.DefaultGenomeConfig(200000)))
}

// BenchmarkIndexBuild measures offline index construction per kind —
// the cost `genasm index build` pays once so later boots can skip it. The
// BenchmarkIndexLoad/IndexBuild ratio is the cold-start win BENCHMARKS.md
// tracks.
func BenchmarkIndexBuild(b *testing.B) {
	ref := benchIndexRef()
	e, err := NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range benchIndexConfigs {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ri, err := e.BuildRefIndex(ref, tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				ri.Close()
			}
		})
	}
}

// BenchmarkIndexLoad measures cold start from a prebuilt index file: open,
// validate (CRC + digest) and mmap a ref.gidx into a ready-to-seed index.
func BenchmarkIndexLoad(b *testing.B) {
	ref := benchIndexRef()
	e, err := NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range benchIndexConfigs {
		b.Run(tc.name, func(b *testing.B) {
			ri, err := e.BuildRefIndex(ref, tc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "ref.gidx")
			if err := ri.WriteFile(path); err != nil {
				b.Fatal(err)
			}
			ri.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lri, err := LoadRefIndex(path)
				if err != nil {
					b.Fatal(err)
				}
				lri.Close()
			}
		})
	}
}

// BenchmarkSeedLookup isolates the seeding step — CandidateLocationsInto
// over simulated short reads — per kind, on both the in-memory built
// form (mem) and the mmap-loaded on-disk form (mmap). The pair guards the
// promise that loading an index from disk does not slow the hot path.
// The 200 kb tables fit in cache; backend=hash/mem-2Mbp seeds 250 bp
// reads against a 2 Mbp table, whose lookups miss the caches, so it
// shows whether seeding overlaps its memory misses.
func BenchmarkSeedLookup(b *testing.B) {
	rng := rand.New(rand.NewPCG(2033, 0))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(200000))
	ref := alphabetDecode(genome)
	reads, err := simulate.Reads(rng, genome, 50, simulate.Illumina100, false)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range benchIndexConfigs {
		for _, storage := range []string{"mem", "mmap"} {
			b.Run(tc.name+"/"+storage, func(b *testing.B) {
				ri, err := e.BuildRefIndex(ref, tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer ri.Close()
				idx := ri.idx
				if storage == "mmap" {
					path := filepath.Join(b.TempDir(), "ref.gidx")
					if err := ri.WriteFile(path); err != nil {
						b.Fatal(err)
					}
					lri, err := LoadRefIndex(path)
					if err != nil {
						b.Fatal(err)
					}
					defer lri.Close()
					idx = lri.idx
				}
				var s index.SeedScratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					idx.CandidateLocationsInto(&s, reads[i%len(reads)].Seq, 8)
				}
			})
		}
	}
	b.Run("backend=hash/mem-2Mbp", func(b *testing.B) {
		rng := rand.New(rand.NewPCG(2034, 0))
		genome := seq.Genome(rng, seq.DefaultGenomeConfig(2_000_000))
		reads, err := simulate.Reads(rng, genome, 4096, simulate.Illumina250, false)
		if err != nil {
			b.Fatal(err)
		}
		idx, err := index.Build(genome, 15)
		if err != nil {
			b.Fatal(err)
		}
		var s index.SeedScratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.CandidateLocationsInto(&s, reads[i%len(reads)].Seq, 8)
		}
	})
}
