package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genasm/internal/stats"
)

func writeBenchFile(t *testing.T, path string, results []stats.BenchResult) {
	t.Helper()
	data, err := json.Marshal(stats.BenchFile{Label: "t", Benchmarks: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCompareSkipsUnmatched pins the warn-and-skip contract: benchmarks
// present only in head (a freshly added BENCH_load-*.json point) or only
// in base must not fail the gate — only the intersection is compared.
func TestCompareSkipsUnmatched(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	headPath := filepath.Join(dir, "head.json")
	writeBenchFile(t, basePath, []stats.BenchResult{
		{Name: "Shared", NsPerOp: 100},
		{Name: "Vanished", NsPerOp: 50},
	})
	writeBenchFile(t, headPath, []stats.BenchResult{
		{Name: "Shared", NsPerOp: 105},
		{Name: "Load/smoke-align/align/p99", NsPerOp: 2_000_000},
	})
	if code := runCompare(basePath+","+headPath, 10, 10); code != 0 {
		t.Fatalf("runCompare = %d, want 0 (head-only and base-only must be skipped)", code)
	}
	// The shared benchmark still gates: 105 vs 100 is a 5% regression,
	// over a 1% threshold.
	if code := runCompare(basePath+","+headPath, 1, 10); code != 1 {
		t.Fatalf("runCompare = %d, want 1 (shared benchmark regressed)", code)
	}
}

// TestCompareNoOverlap confirms disjoint base/head is a clean pass.
func TestCompareNoOverlap(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	headPath := filepath.Join(dir, "head.json")
	writeBenchFile(t, basePath, []stats.BenchResult{{Name: "Old", NsPerOp: 10}})
	writeBenchFile(t, headPath, []stats.BenchResult{{Name: "New", NsPerOp: 10}})
	if code := runCompare(basePath+","+headPath, 10, 10); code != 0 {
		t.Fatalf("runCompare = %d, want 0 for disjoint sets", code)
	}
}

// TestCompareMedian pins the per-name median rule at the CI thresholds
// (15% ns/op): a uniform slowdown past the threshold fails, and a single
// outlier sample on either side cannot decide the verdict.
func TestCompareMedian(t *testing.T) {
	for _, tc := range []struct {
		name       string
		base, head []float64
		want       int
	}{
		{"uniform 16% head slowdown", []float64{100, 100, 100, 100}, []float64{116, 116, 116, 116}, 1},
		{"one 2x head outlier", []float64{100, 100, 100, 100}, []float64{100, 200, 100, 100}, 0},
		{"fast base outlier over a 16% slowdown", []float64{100, 50, 100, 100}, []float64{116, 116, 116, 116}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			samples := func(ns []float64) []stats.BenchResult {
				var out []stats.BenchResult
				for _, v := range ns {
					out = append(out, stats.BenchResult{Name: "Align", Iterations: 1000, NsPerOp: v})
				}
				return out
			}
			basePath := filepath.Join(dir, "base.json")
			headPath := filepath.Join(dir, "head.json")
			writeBenchFile(t, basePath, samples(tc.base))
			writeBenchFile(t, headPath, samples(tc.head))
			if code := runCompare(basePath+","+headPath, 15, 10); code != tc.want {
				t.Fatalf("runCompare = %d, want %d", code, tc.want)
			}
		})
	}
}

// testdata/bench.txt is `go test -bench -benchmem -count 2 -cpu 2` output
// for BenchmarkAlign, BenchmarkSeedLookup and BenchmarkRegistry, followed
// by a run of BenchmarkTable1AreaPower without -benchmem, whose lines have
// no memory columns.
const benchText = "testdata/bench.txt"

// TestParseBenchText checks the converter's names (no "Benchmark" prefix,
// no "-2" GOMAXPROCS suffix, "=" and "/" kept, "mem-2Mbp" intact), that
// every sample is kept, and the NoMem marking.
func TestParseBenchText(t *testing.T) {
	data, err := os.ReadFile(benchText)
	if err != nil {
		t.Fatal(err)
	}
	results := parseBenchText(string(data))
	counts := make(map[string]int)
	noMem := make(map[string]bool)
	for _, r := range results {
		counts[r.Name]++
		if r.NoMem {
			noMem[r.Name] = true
		}
	}
	want := map[string]int{
		"Align/kernel=scrooge/short100bp":   2,
		"Align/kernel=scrooge/long10kbp":    2,
		"SeedLookup/backend=hash/mem":       2,
		"SeedLookup/backend=hash/mmap":      2,
		"SeedLookup/backend=minimizer/mem":  2,
		"SeedLookup/backend=minimizer/mmap": 2,
		"SeedLookup/backend=hash/mem-2Mbp":  2,
		"Registry/acquire-hit":              2,
		"Registry/acquire-map-read":         2,
		"Registry/load-evict":               2,
		"Table1AreaPower":                   2,
	}
	if !maps.Equal(counts, want) {
		t.Errorf("sample counts = %v, want %v", counts, want)
	}
	if !maps.Equal(noMem, map[string]bool{"Table1AreaPower": true}) {
		t.Errorf("NoMem names = %v, want only Table1AreaPower", noMem)
	}
	first := stats.BenchResult{Name: "Align/kernel=scrooge/short100bp", Iterations: 200, NsPerOp: 3015}
	if results[0] != first {
		t.Errorf("first sample = %+v, want %+v", results[0], first)
	}
	hit := stats.BenchResult{Name: "Registry/acquire-hit", Iterations: 200, NsPerOp: 634.6, BytesPerOp: 33, AllocsPerOp: 1}
	if results[14] != hit {
		t.Errorf("sample 14 = %+v, want %+v", results[14], hit)
	}
}

// TestLoadBenchTextMatchesJSON checks that -compare sees the same per-name
// metrics in `go test -bench` text and in its -json conversion, memory
// columns (or their absence) included.
func TestLoadBenchTextMatchesJSON(t *testing.T) {
	data, err := os.ReadFile(benchText)
	if err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(t.TempDir(), "BENCH_t.json")
	if code := runConvert(strings.NewReader(string(data)), jsonPath, "t"); code != 0 {
		t.Fatalf("runConvert = %d", code)
	}
	fromText, err := loadBench(benchText)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := loadBench(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(fromText, fromJSON) {
		t.Errorf("text and JSON differ:\ntext %v\njson %v", fromText, fromJSON)
	}
	if fromText["Table1AreaPower"].hasMem || !fromText["Registry/load-evict"].hasMem {
		t.Errorf("hasMem: Table1AreaPower %v (want false), Registry/load-evict %v (want true)",
			fromText["Table1AreaPower"].hasMem, fromText["Registry/load-evict"].hasMem)
	}
}

// TestConvertRejectsEmptyInput keeps a broken pipe from writing an empty
// artifact: input without result lines is an error.
func TestConvertRejectsEmptyInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_t.json")
	if code := runConvert(strings.NewReader("PASS\nok  \tgenasm\t0.01s\n"), path, "t"); code == 0 {
		t.Fatal("runConvert accepted input without benchmark results")
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("runConvert wrote a file for empty input")
	}
}

// TestCommittedBenchFilesLoad keeps the committed trajectory readable by
// -compare: every BENCH_*.json at the repository root loads with at least
// one result (loadBench fails on a file without results).
func TestCommittedBenchFilesLoad(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json files at the repository root")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			if _, err := loadBench(path); err != nil {
				t.Fatal(err)
			}
		})
	}
}
