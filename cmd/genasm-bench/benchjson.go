package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genasm"
	"genasm/internal/alphabet"
	"genasm/internal/core"
	"genasm/internal/index"
	"genasm/internal/indexfile"
	"genasm/internal/metrics"
	"genasm/internal/registry"
	"genasm/internal/seq"
	"genasm/internal/simulate"
)

// BenchResult is one benchmark measurement in a BENCH_<label>.json file.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// BenchFile is the schema of BENCH_<label>.json — the machine-readable
// benchmark artifact the CI regression gate consumes and the repository
// tracks over time.
type BenchFile struct {
	Label      string        `json:"label"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// runJSONBench runs the key-path benchmark suite via testing.Benchmark and
// writes the results as JSON; it returns the process exit code.
func runJSONBench(path, label string) int {
	if label == "" {
		label = "local"
	}
	file := BenchFile{
		Label:     label,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, b := range benchSuite() {
		res := testing.Benchmark(b.fn)
		r := BenchResult{
			Name:        b.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
		file.Benchmarks = append(file.Benchmarks, r)
		fmt.Printf("%-40s %12.0f ns/op %10d B/op %8d allocs/op\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	if ratio, ok := kernelSpeedup(file.Benchmarks); ok {
		fmt.Printf("%-40s %12.2fx (scrooge vs baseline ns/op, short read)\n", "Align kernel speedup", ratio)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "genasm-bench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "genasm-bench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", path)
	return 0
}

// kernelSpeedup extracts the baseline/scrooge Align ratio from the suite
// results.
func kernelSpeedup(rs []BenchResult) (float64, bool) {
	var base, scrooge float64
	for _, r := range rs {
		switch r.Name {
		case "Align/kernel=baseline/short100bp":
			base = r.NsPerOp
		case "Align/kernel=scrooge/short100bp":
			scrooge = r.NsPerOp
		}
	}
	if base == 0 || scrooge == 0 {
		return 0, false
	}
	return base / scrooge, true
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// benchSuite mirrors the repository's tracked `go test -bench` key paths
// (BenchmarkAlign, BenchmarkCompiledSearch, BenchmarkPoolThroughput,
// BenchmarkMapper) as standalone testing.Benchmark functions.
func benchSuite() []namedBench {
	var suite []namedBench
	for _, kern := range []core.Kernel{core.KernelBaseline, core.KernelScrooge} {
		for _, c := range []struct {
			name            string
			refLen, readLen int
			errRate         float64
		}{
			{"short100bp", 120, 100, 0.05},
			{"long10kbp", 11500, 10000, 0.10},
		} {
			kern, c := kern, c
			suite = append(suite, namedBench{
				name: fmt.Sprintf("Align/kernel=%s/%s", kern, c.name),
				fn: func(b *testing.B) {
					rng := rand.New(rand.NewPCG(77, uint64(c.readLen)))
					ref := seq.Random(rng, c.refLen)
					read := mutateCodes(rng, ref[:c.readLen], c.errRate)
					ws := core.MustNew(core.Config{Kernel: kern})
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := ws.Align(ref, read); err != nil {
							b.Fatal(err)
						}
					}
				},
			})
		}
	}

	// Names mirror the `go test -bench` leaves (BenchmarkCompiledSearch/
	// Compiled, BenchmarkPoolThroughput/Pool/workers=4, ...) so -compare
	// matches JSON artifacts against text output one-to-one.
	suite = append(suite, namedBench{
		name: "CompiledSearch/Compiled",
		fn: func(b *testing.B) {
			rng := rand.New(rand.NewPCG(2028, 0))
			e, err := genasm.NewEngine(genasm.WithAlphabet(genasm.Bytes))
			if err != nil {
				b.Fatal(err)
			}
			pattern := make([]byte, 96)
			for i := range pattern {
				pattern[i] = byte(32 + rng.IntN(95))
			}
			texts := make([][]byte, 64)
			for i := range texts {
				tx := make([]byte, 160)
				for j := range tx {
					tx[j] = byte(32 + rng.IntN(95))
				}
				copy(tx[rng.IntN(60):], pattern)
				tx[80] = '!'
				texts[i] = tx
			}
			cp, err := e.Compile(pattern, 2)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cp.Search(ctx, texts[i%len(texts)]); err != nil {
					b.Fatal(err)
				}
			}
		},
	})

	suite = append(suite, namedBench{
		name: "PoolThroughput/Pool/workers=4",
		fn: func(b *testing.B) {
			rng := rand.New(rand.NewPCG(2027, 1))
			const nPairs = 64
			texts := make([][]byte, nPairs)
			queries := make([][]byte, nPairs)
			for i := range texts {
				enc := seq.Random(rng, 1000)
				texts[i] = alphabet.DNA.Decode(enc)
				queries[i] = alphabet.DNA.Decode(mutateCodes(rng, enc, 0.05))
			}
			e, err := genasm.NewEngine(genasm.WithMaxWorkspaces(4), genasm.WithShards(4))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
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
		},
	})

	// The streaming core vs its slice wrapper on the 1k-job workload —
	// tracks the stream overhead (channel hops, ordered reorder buffer)
	// the acceptance gate keeps within 10% of AlignBatch.
	streamJobs := func() []genasm.BatchJob {
		rng := rand.New(rand.NewPCG(2031, 0))
		jobs := make([]genasm.BatchJob, 1000)
		for i := range jobs {
			enc := seq.Random(rng, 150)
			jobs[i] = genasm.BatchJob{
				Text:   alphabet.DNA.Decode(enc),
				Query:  alphabet.DNA.Decode(mutateCodes(rng, enc, 0.05)),
				Global: true,
			}
		}
		return jobs
	}
	suite = append(suite, namedBench{
		name: "AlignStream/Batch",
		fn: func(b *testing.B) {
			e, err := genasm.NewEngine()
			if err != nil {
				b.Fatal(err)
			}
			jobs := streamJobs()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.AlignBatch(ctx, jobs); err != nil {
					b.Fatal(err)
				}
			}
		},
	})
	suite = append(suite, namedBench{
		name: "AlignStream/Stream",
		fn: func(b *testing.B) {
			e, err := genasm.NewEngine()
			if err != nil {
				b.Fatal(err)
			}
			jobs := streamJobs()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for res := range e.AlignStream(ctx, slices.Values(jobs)) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
		},
	})

	mapperBench := func(trace *genasm.MapTrace) func(b *testing.B) {
		return func(b *testing.B) {
			rng := rand.New(rand.NewPCG(2030, 0))
			genome := seq.Genome(rng, seq.DefaultGenomeConfig(200000))
			reads, err := simulate.Reads(rng, genome, 50, simulate.Illumina250, false)
			if err != nil {
				b.Fatal(err)
			}
			e, err := genasm.NewEngine()
			if err != nil {
				b.Fatal(err)
			}
			m, err := e.NewMapper(alphabet.DNA.Decode(genome), genasm.MapperConfig{
				SeedParams: genasm.SeedParams{SeedK: 15}, ErrorRate: 0.05, Prefilter: true, Trace: trace,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			// Decode outside the timed loop, mirroring BenchmarkMapper.
			letters := make([][]byte, len(reads))
			for i, r := range reads {
				letters[i] = alphabet.DNA.Decode(r.Seq)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.MapRead(ctx, letters[i%len(letters)]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	suite = append(suite, namedBench{name: "Mapper", fn: mapperBench(nil)})
	// The traced pair tracks the observability tax: Traced attaches the
	// same metrics-backed MapTrace the HTTP server uses, so the artifact
	// records the overhead of keeping stage tracing on in production.
	suite = append(suite, namedBench{name: "MapperTraced/Untraced", fn: mapperBench(nil)})
	suite = append(suite, namedBench{name: "MapperTraced/Traced", fn: mapperBench(metricsMapTrace())})

	// Persistent-index benchmarks (mirror BenchmarkIndexBuild/IndexLoad/
	// SeedLookup): offline construction vs mmap cold start per kind, and
	// the seeding hot path on the built and the mmap-loaded index form.
	// The IndexLoad/IndexBuild ratio is the cold-start win BENCHMARKS.md
	// tracks.
	indexRef := func() []byte {
		rng := rand.New(rand.NewPCG(2032, 0))
		return alphabet.DNA.Decode(seq.Genome(rng, seq.DefaultGenomeConfig(200000)))
	}
	for _, c := range []struct {
		name string
		cfg  genasm.RefIndexConfig
	}{
		{"backend=hash", genasm.RefIndexConfig{SeedParams: genasm.SeedParams{SeedK: 15}}},
		{"backend=minimizer", genasm.RefIndexConfig{SeedParams: genasm.SeedParams{SeedK: 15, MinimizerW: 10}}},
	} {
		c := c
		suite = append(suite, namedBench{
			name: "IndexBuild/" + c.name,
			fn: func(b *testing.B) {
				ref := indexRef()
				e, err := genasm.DefaultEngine()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ri, err := e.BuildRefIndex(ref, c.cfg)
					if err != nil {
						b.Fatal(err)
					}
					ri.Close()
				}
			},
		})
		suite = append(suite, namedBench{
			name: "IndexLoad/" + c.name,
			fn: func(b *testing.B) {
				ref := indexRef()
				e, err := genasm.DefaultEngine()
				if err != nil {
					b.Fatal(err)
				}
				ri, err := e.BuildRefIndex(ref, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				dir, err := os.MkdirTemp("", "genasm-bench")
				if err != nil {
					b.Fatal(err)
				}
				defer os.RemoveAll(dir)
				path := filepath.Join(dir, "ref.gidx")
				if err := ri.WriteFile(path); err != nil {
					b.Fatal(err)
				}
				ri.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lri, err := genasm.LoadRefIndex(path)
					if err != nil {
						b.Fatal(err)
					}
					lri.Close()
				}
			},
		})
		for _, storage := range []string{"mem", "mmap"} {
			storage := storage
			suite = append(suite, namedBench{
				name: "SeedLookup/" + c.name + "/" + storage,
				fn:   seedLookupBench(c.cfg, storage),
			})
		}
	}

	// Registry benchmarks (mirror BenchmarkRegistry): the per-request pin on
	// a resident reference — paid by every named /v1/map request — versus the
	// mmap-load-plus-evict churn when the resident budget is one index short.
	suite = append(suite, namedBench{name: "Registry/acquire-hit", fn: registryBench(false)})
	suite = append(suite, namedBench{name: "Registry/load-evict", fn: registryBench(true)})

	return suite
}

// registryBench builds file-backed references behind a registry and times
// Acquire/Release. With churn=false a single resident reference is pinned
// repeatedly (pure hit path); with churn=true two references alternate
// under a budget that fits only one, so every Acquire evicts and reloads.
func registryBench(churn bool) func(b *testing.B) {
	return func(b *testing.B) {
		e, err := genasm.NewEngine(genasm.WithSearchStart(true))
		if err != nil {
			b.Fatal(err)
		}
		var budget int64
		names := []string{"chrA"}
		if churn {
			budget = 1
			names = []string{"chrA", "chrB"}
		}
		r, err := registry.New(registry.Config{
			NewMapper: func(ri *genasm.RefIndex, name string) (*genasm.Mapper, error) {
				return e.NewMapperFromIndex(ri, genasm.MapperConfig{RefName: name})
			},
			MaxResidentBytes: budget,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		dir, err := os.MkdirTemp("", "genasm-bench")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		for i, name := range names {
			rng := rand.New(rand.NewPCG(uint64(2040+i), 0))
			ref := alphabet.DNA.Decode(seq.Genome(rng, seq.DefaultGenomeConfig(50000)))
			ri, err := e.BuildRefIndex(ref, genasm.RefIndexConfig{RefName: name})
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(dir, name+".gasmidx")
			if err := ri.WriteFile(path); err != nil {
				b.Fatal(err)
			}
			ri.Close()
			if err := r.AddFile(name, path); err != nil {
				b.Fatal(err)
			}
		}
		if !churn {
			if err := r.Load(names[0]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h, err := r.Acquire(names[i%len(names)])
			if err != nil {
				b.Fatal(err)
			}
			h.Release()
		}
	}
}

// seedLookupBench isolates the seeding step — CandidateLocationsInto over
// simulated short reads — for one index kind, on the in-memory built index
// (mem) or an mmap-loaded index file (mmap). It mirrors
// BenchmarkSeedLookup, reaching through the internal index/indexfile
// packages because the raw seed table is not public API.
func seedLookupBench(cfg genasm.RefIndexConfig, storage string) func(b *testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewPCG(2033, 0))
		genome := seq.Genome(rng, seq.DefaultGenomeConfig(200000))
		reads, err := simulate.Reads(rng, genome, 50, simulate.Illumina100, false)
		if err != nil {
			b.Fatal(err)
		}
		var idx *index.Index
		if cfg.MinimizerW > 0 {
			idx, err = index.BuildMinimizer(genome, cfg.SeedK, cfg.MinimizerW)
		} else {
			idx, err = index.Build(genome, cfg.SeedK)
		}
		if err != nil {
			b.Fatal(err)
		}
		if storage == "mmap" {
			dir, err := os.MkdirTemp("", "genasm-bench")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			path := filepath.Join(dir, "ref.gidx")
			if err := indexfile.WriteFile(path, idx, "ref"); err != nil {
				b.Fatal(err)
			}
			f, err := indexfile.Load(path)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			idx = f.Index
		}
		var s index.SeedScratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.CandidateLocationsInto(&s, reads[i%len(reads)].Seq, 8)
		}
	}
}

// metricsMapTrace mirrors the server's metrics-backed MapTrace: every hook
// feeds live counters and histograms, so the Traced benchmark measures the
// production observability cost rather than a no-op stub.
func metricsMapTrace() *genasm.MapTrace {
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
	return &genasm.MapTrace{
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

// mutateCodes applies ~errRate edits per character to a copy of s (dense
// DNA codes).
func mutateCodes(rng *rand.Rand, s []byte, errRate float64) []byte {
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

// benchMetrics aggregates the measurements of one benchmark name.
type benchMetrics struct {
	ns     float64
	bytes  float64
	allocs float64
	// hasMem reports whether bytes/allocs were present (-benchmem text
	// output and JSON artifacts have them; plain -bench text does not).
	hasMem bool
	count  int
}

// Memory regressions below these absolute deltas are ignored: tiny
// per-op budgets (a handful of allocations) would otherwise trip the
// percentage gate on scheduler-level jitter.
const (
	memSlackBytes  = 64
	memSlackAllocs = 2
)

// runCompare loads two benchmark result files (BENCH_*.json or `go test
// -bench` text output) and compares the benchmarks present in both:
// ns/op against maxRegressPct, and — when both files carry memory columns
// — B/op and allocs/op against maxRegressMemPct, so an accidentally
// reintroduced hot-path allocation fails CI even when the cycle cost
// hides in noise. It returns a non-zero exit code on any regression.
func runCompare(spec string, maxRegressPct, maxRegressMemPct float64) int {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		fmt.Fprintf(os.Stderr, "genasm-bench: -compare wants base,head (got %q)\n", spec)
		return 2
	}
	base, err := loadBench(parts[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "genasm-bench: %v\n", err)
		return 2
	}
	head, err := loadBench(parts[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "genasm-bench: %v\n", err)
		return 2
	}

	var names, headOnly, baseOnly []string
	for name := range head {
		if _, ok := base[name]; ok {
			names = append(names, name)
		} else {
			headOnly = append(headOnly, name)
		}
	}
	for name := range base {
		if _, ok := head[name]; !ok {
			baseOnly = append(baseOnly, name)
		}
	}
	sort.Strings(names)
	sort.Strings(headOnly)
	sort.Strings(baseOnly)
	// New benchmarks (e.g. a first BENCH_load-*.json point) have no base
	// to regress against and vanished ones nothing to gate — warn so the
	// log shows what was not compared, and gate only the intersection.
	for _, name := range headOnly {
		fmt.Printf("warning: %s only in head (new benchmark, skipped)\n", name)
	}
	for _, name := range baseOnly {
		fmt.Printf("warning: %s only in base (missing from head, skipped)\n", name)
	}
	if len(names) == 0 {
		fmt.Println("no common benchmarks between base and head; nothing to gate")
		return 0
	}

	nsRegressions, memRegressions := 0, 0
	fmt.Printf("%-45s %14s %14s %9s %s\n", "benchmark", "base ns/op", "head ns/op", "delta", "mem")
	for _, name := range names {
		b, h := base[name], head[name]
		delta := (h.ns/b.ns - 1) * 100
		verdict := ""
		if delta > maxRegressPct {
			verdict = "  REGRESSION"
			nsRegressions++
		}
		mem := ""
		if b.hasMem && h.hasMem {
			mem = fmt.Sprintf("%.0f->%.0fB %.0f->%.0f allocs", b.bytes, h.bytes, b.allocs, h.allocs)
			overPct := func(bv, hv float64) bool {
				return bv > 0 && (hv/bv-1)*100 > maxRegressMemPct
			}
			grewBytes := h.bytes > b.bytes+memSlackBytes && (overPct(b.bytes, h.bytes) || b.bytes == 0)
			grewAllocs := h.allocs > b.allocs+memSlackAllocs && (overPct(b.allocs, h.allocs) || b.allocs == 0)
			if grewBytes || grewAllocs {
				verdict += "  MEM-REGRESSION"
				memRegressions++
			}
		}
		fmt.Printf("%-45s %14.0f %14.0f %+8.1f%%%s  %s\n", name, b.ns, h.ns, delta, verdict, mem)
	}
	if nsRegressions > 0 {
		fmt.Fprintf(os.Stderr, "genasm-bench: %d benchmark(s) regressed more than %.0f%% ns/op\n",
			nsRegressions, maxRegressPct)
	}
	if memRegressions > 0 {
		fmt.Fprintf(os.Stderr, "genasm-bench: %d benchmark(s) regressed more than %.0f%% B/op or allocs/op\n",
			memRegressions, maxRegressMemPct)
	}
	if nsRegressions+memRegressions > 0 {
		return 1
	}
	return 0
}

// benchLine matches one `go test -bench` result line, e.g.
// "BenchmarkAlign/kernel=scrooge/short100bp-8  167480  7272 ns/op  848 B/op  11 allocs/op".
// The memory columns are optional (-benchmem).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

// loadBench reads benchmark results from a BENCH_*.json file or from `go
// test -bench` text output, averaging repeated measurements per name.
// Memory metrics are kept only when every measurement of a name has them.
func loadBench(path string) (map[string]benchMetrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sums := make(map[string]benchMetrics)
	add := func(name string, ns, bytes, allocs float64, hasMem bool) {
		m := sums[name]
		m.ns += ns
		m.bytes += bytes
		m.allocs += allocs
		m.hasMem = hasMem && (m.count == 0 || m.hasMem)
		m.count++
		sums[name] = m
	}
	if trimmed := strings.TrimSpace(string(data)); strings.HasPrefix(trimmed, "{") {
		var f BenchFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range f.Benchmarks {
			add("Benchmark"+r.Name, r.NsPerOp, float64(r.BytesPerOp), float64(r.AllocsPerOp), true)
		}
	} else {
		for _, line := range strings.Split(string(data), "\n") {
			m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
			if m == nil {
				continue
			}
			ns, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				continue
			}
			var bytes, allocs float64
			hasMem := m[3] != ""
			if hasMem {
				bytes, _ = strconv.ParseFloat(m[3], 64)
				allocs, _ = strconv.ParseFloat(m[4], 64)
			}
			add(m[1], ns, bytes, allocs, hasMem)
		}
	}
	out := make(map[string]benchMetrics, len(sums))
	for name, m := range sums {
		n := float64(m.count)
		m.ns /= n
		m.bytes /= n
		m.allocs /= n
		out[name] = m
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return out, nil
}
