package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"genasm/internal/stats"
)

// runConvert reads `go test -bench` output from r and writes every sample
// to path in the BENCH_*.json schema; it returns the process exit code.
func runConvert(r io.Reader, path, label string) int {
	if label == "" {
		label = "local"
	}
	text, err := io.ReadAll(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genasm-bench: reading benchmark output: %v\n", err)
		return 1
	}
	file := stats.NewBenchFile(label)
	file.Benchmarks = parseBenchText(string(text))
	if len(file.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "genasm-bench: no `go test -bench` result lines on stdin")
		return 1
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
	fmt.Printf("wrote %s (%d samples)\n", path, len(file.Benchmarks))
	return 0
}

// procsSuffix is the "-N" GOMAXPROCS suffix `go test` appends to a
// benchmark name when N > 1.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchText returns one result per `go test -bench` result line, e.g.
// "BenchmarkAlign/kernel=scrooge/short100bp-8  167480  7272 ns/op  848 B/op  11 allocs/op",
// in input order. Names lose the "Benchmark" prefix and the GOMAXPROCS
// suffix so they pair with BENCH_*.json names; a line without the B/op
// and allocs/op columns gets NoMem. Every other line is skipped.
func parseBenchText(text string) []stats.BenchResult {
	var out []stats.BenchResult
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			continue
		}
		r := stats.BenchResult{
			Name:       procsSuffix.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), ""),
			Iterations: n,
		}
		// The rest are value-unit pairs: ns/op first, then any MB/s and
		// custom metrics, then B/op and allocs/op.
		var hasNs, hasBytes, hasAllocs bool
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				r.NsPerOp, hasNs = v, true
			case "B/op":
				r.BytesPerOp, hasBytes = int64(v), true
			case "allocs/op":
				r.AllocsPerOp, hasAllocs = int64(v), true
			}
		}
		if !hasNs {
			continue
		}
		r.NoMem = !hasBytes || !hasAllocs
		out = append(out, r)
	}
	return out
}

// benchMetrics summarizes the samples of one benchmark name.
type benchMetrics struct {
	// ns, bytes and allocs are per-op medians over the samples.
	ns, bytes, allocs float64
	// nsMin and nsMax are the range of the ns/op samples.
	nsMin, nsMax float64
	// hasMem reports whether every sample carried bytes/allocs.
	hasMem bool
}

// Memory regressions below these absolute deltas are ignored: tiny
// per-op budgets (a handful of allocations) would otherwise trip the
// percentage gate on scheduler-level jitter.
const (
	memSlackBytes  = 64
	memSlackAllocs = 2
)

// runCompare loads two benchmark result files (BENCH_*.json or `go test
// -bench` text output) and compares the benchmarks present in both by
// their per-name medians: ns/op against maxRegressPct, and — when both
// files carry memory columns — B/op and allocs/op against
// maxRegressMemPct, so an accidentally reintroduced hot-path allocation
// fails CI even when the cycle cost hides in noise. It prints each side's
// ns/op range beside its median and returns a non-zero exit code on any
// regression.
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
	spread := func(m benchMetrics) string {
		return fmt.Sprintf("%.0f [%.0f..%.0f]", m.ns, m.nsMin, m.nsMax)
	}
	fmt.Printf("%-45s %28s %28s %9s %s\n", "benchmark", "base ns/op [min..max]", "head ns/op [min..max]", "delta", "mem")
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
		fmt.Printf("%-45s %28s %28s %+8.1f%%%s  %s\n", name, spread(b), spread(h), delta, verdict, mem)
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

// loadBench reads benchmark results from a BENCH_*.json file or from `go
// test -bench` text output and summarizes the samples of each name by
// their median (stats.Summarize's P50: the lower middle sample for an
// even count), so one outlier among several samples cannot decide a
// comparison. Memory metrics are kept only when every sample of a name
// has them.
func loadBench(path string) (map[string]benchMetrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []stats.BenchResult
	if strings.HasPrefix(strings.TrimSpace(string(data)), "{") {
		var f stats.BenchFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		results = f.Benchmarks
	} else {
		results = parseBenchText(string(data))
	}
	byName := make(map[string][]stats.BenchResult)
	for _, r := range results {
		byName[r.Name] = append(byName[r.Name], r)
	}
	if len(byName) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	out := make(map[string]benchMetrics, len(byName))
	for name, rs := range byName {
		ns := make([]float64, len(rs))
		bytes := make([]float64, len(rs))
		allocs := make([]float64, len(rs))
		hasMem := true
		for i, r := range rs {
			ns[i], bytes[i], allocs[i] = r.NsPerOp, float64(r.BytesPerOp), float64(r.AllocsPerOp)
			hasMem = hasMem && !r.NoMem
		}
		nsSum := stats.Summarize(ns)
		out[name] = benchMetrics{
			ns:     nsSum.P50,
			bytes:  stats.Summarize(bytes).P50,
			allocs: stats.Summarize(allocs).P50,
			nsMin:  nsSum.Min,
			nsMax:  nsSum.Max,
			hasMem: hasMem,
		}
	}
	return out, nil
}
