// Command genasm-bench regenerates every table and figure of the GenASM
// paper's evaluation (Section 10) at laptop scale, and doubles as the
// converter and comparator behind the CI benchmark-regression gate. See
// PAPER.md for the paper and BENCHMARKS.md for the benchmark workflow.
//
// Usage:
//
//	genasm-bench [-exp all|table1|fig9|fig10|fig11|fig12|fig13|fig14|
//	              filter|accuracy|ablation|sillax|asap|gasal2]
//	             [-tiny] [-seed N]
//	go test -run '^$' -bench . -benchmem -count 4 . |
//	    genasm-bench -json BENCH_dev.json [-label dev]
//	genasm-bench -compare BENCH_base.json,BENCH_head.json [-max-regress 15]
//	             [-max-regress-mem 10]
//
// Paper tables carry pass/fail checks against the paper's reported
// numbers; any failed check makes the run exit non-zero so CI can gate on
// it. -json reads `go test -bench` output on stdin and writes every sample
// in the BENCH_*.json schema, named without the "Benchmark" prefix and the
// -N GOMAXPROCS suffix. -compare diffs two result files (JSON or `go test
// -bench` text) by each benchmark's median sample, prints each side's
// ns/op range, and exits non-zero on ns/op regressions beyond -max-regress
// percent; when both files carry memory columns (-benchmem or JSON), it
// also gates B/op and allocs/op at -max-regress-mem percent so hot-path
// allocation wins cannot silently rot.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"genasm/internal/bench"
	"genasm/internal/stats"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment id (all, table1, fig9..fig14, filter, accuracy, ablation, sillax, asap, gasal2)")
		tiny = flag.Bool("tiny", false, "run at unit-test scale (fast smoke run)")
		seed = flag.Uint64("seed", 0, "override the deterministic workload seed")

		jsonOut       = flag.String("json", "", "convert `go test -bench` output read on stdin into a BENCH_*.json file at this path (skips the paper tables)")
		label         = flag.String("label", "", "label recorded in -json output (e.g. the git SHA; default \"local\")")
		compare       = flag.String("compare", "", "compare two benchmark result files given as base,head (JSON or `go test -bench` text) and exit non-zero on regression")
		maxRegress    = flag.Float64("max-regress", 15, "with -compare: maximum allowed ns/op regression in percent")
		maxRegressMem = flag.Float64("max-regress-mem", 10, "with -compare: maximum allowed B/op and allocs/op regression in percent (small absolute deltas are ignored; needs -benchmem data on both sides)")
	)
	flag.Parse()

	if *compare != "" {
		os.Exit(runCompare(*compare, *maxRegress, *maxRegressMem))
	}
	if *jsonOut != "" {
		os.Exit(runConvert(os.Stdin, *jsonOut, *label))
	}

	scale := bench.Scale{}
	if *tiny {
		scale = bench.Tiny()
	}
	if *seed != 0 {
		scale.Seed = *seed
	}

	type experiment struct {
		id  string
		run func() (*stats.Table, error)
	}
	experiments := []experiment{
		{"table1", func() (*stats.Table, error) { return bench.Table1(), nil }},
		{"fig9", func() (*stats.Table, error) { return bench.Fig9(scale) }},
		{"fig10", func() (*stats.Table, error) { return bench.Fig10(scale) }},
		{"fig11", func() (*stats.Table, error) { return bench.Fig11(scale) }},
		{"fig12", func() (*stats.Table, error) { return bench.Fig12(scale) }},
		{"fig13", func() (*stats.Table, error) { return bench.Fig13(scale) }},
		{"fig14", func() (*stats.Table, error) { return bench.Fig14(scale) }},
		{"filter", func() (*stats.Table, error) { return bench.FilterAccuracy(scale) }},
		{"filtermodel", func() (*stats.Table, error) { return bench.FilterModelled(), nil }},
		{"accuracy", func() (*stats.Table, error) { return bench.Accuracy(scale) }},
		{"ablation", func() (*stats.Table, error) { return bench.Ablation(scale) }},
		{"sillax", func() (*stats.Table, error) { return bench.SillaX(), nil }},
		{"asap", func() (*stats.Table, error) { return bench.ASAP(), nil }},
		{"gasal2", func() (*stats.Table, error) { return bench.GASAL2(), nil }},
	}

	want := strings.ToLower(*exp)
	ran := 0
	var failures []string
	for _, e := range experiments {
		if want != "all" && want != e.id {
			continue
		}
		start := time.Now()
		t, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "genasm-bench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		t.Render(os.Stdout)
		fmt.Printf("(%s in %s)\n\n", e.id, time.Since(start).Round(time.Millisecond))
		failures = append(failures, t.Failures()...)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "genasm-bench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "genasm-bench: %d paper-table check(s) failed:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  FAIL %s\n", f)
		}
		os.Exit(1)
	}
}
