package stats

import "runtime"

// BenchResult is one benchmark measurement in a BENCH_<label>.json file.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// NoMem marks a `go test -bench` sample taken without memory columns
	// (no -benchmem, no ReportAllocs): BytesPerOp and AllocsPerOp are then
	// unknown rather than zero.
	NoMem bool `json:"no_mem,omitempty"`
}

// BenchFile is the schema of BENCH_<label>.json — the machine-readable
// benchmark artifact `genasm-bench -compare` reads and the repository
// tracks over time. Load reports extend it with their own fields.
type BenchFile struct {
	Label      string        `json:"label"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// NewBenchFile returns an empty envelope labelled label for the running
// toolchain and platform.
func NewBenchFile(label string) BenchFile {
	return BenchFile{
		Label:     label,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
}
