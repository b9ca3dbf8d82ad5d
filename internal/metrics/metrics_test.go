package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("jobs_total", "Jobs.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth", "Depth.")
	g.Set(7)
	g.Add(3)
	g.Dec()
	if got := g.Value(); got != 9 {
		t.Errorf("gauge = %d, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got, want := h.Sum(), 0.005+0.01+0.05+0.5+2; math.Abs(got-want) > 1e-12 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// Per-bucket (non-cumulative) counts: ≤0.01 gets both 0.005 and the
	// boundary value 0.01; each remaining value lands one bucket up.
	want := []uint64{2, 1, 1, 1}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestVecChildrenAreDistinctAndCached(t *testing.T) {
	r := New()
	v := r.CounterVec("req_total", "Requests.", "endpoint", "status")
	a := v.With("/v1/align", "200")
	b := v.With("/v1/align", "400")
	if a == b {
		t.Fatal("distinct label tuples returned the same counter")
	}
	a.Add(3)
	b.Inc()
	if v.With("/v1/align", "200") != a {
		t.Error("repeated With did not return the cached child")
	}
	if got := v.Sum(); got != 4 {
		t.Errorf("Sum = %d, want 4", got)
	}
}

func TestGaugeVec(t *testing.T) {
	r := New()
	v := r.GaugeVec("index_info", "Index descriptor.", "backend", "source")
	a := v.With("hash", "mmap")
	b := v.With("minimizer", "built")
	if a == b {
		t.Fatal("distinct label tuples returned the same gauge")
	}
	a.Set(1)
	b.Set(1)
	if v.With("hash", "mmap") != a {
		t.Error("repeated With did not return the cached child")
	}
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`index_info{backend="hash",source="mmap"} 1`,
		`index_info{backend="minimizer",source="built"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	r := New()
	r.Counter("dup", "x")
	for name, fn := range map[string]func(){
		"duplicate name":   func() { r.Counter("dup", "y") },
		"invalid name":     func() { r.Counter("0bad", "y") },
		"reserved le":      func() { r.HistogramVec("h", "y", nil, "le") },
		"arity mismatch":   func() { r.CounterVec("v", "y", "a").With("x", "y") },
		"unsorted buckets": func() { r.Histogram("hb", "y", []float64{1, 0.5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestConcurrentObserve hammers one histogram, one counter and one vec
// child from 8 goroutines; run with -race. Totals must come out exact —
// the instruments are atomic, not merely "eventually close".
func TestConcurrentObserve(t *testing.T) {
	r := New()
	h := r.Histogram("h_seconds", "h", []float64{0.001, 0.01, 0.1})
	c := r.Counter("c_total", "c")
	v := r.CounterVec("v_total", "v", "kind")
	const goroutines, perG = 8, 5000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kind := []string{"a", "b"}[g%2]
			for i := 0; i < perG; i++ {
				h.Observe(float64(i%100) / 1000.0)
				c.Inc()
				v.With(kind).Inc()
			}
		}(g)
	}
	wg.Wait()

	if got := h.Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	wantSum := 0.0
	for i := 0; i < perG; i++ {
		wantSum += float64(i%100) / 1000.0
	}
	wantSum *= goroutines
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6*wantSum {
		t.Errorf("histogram sum = %v, want %v", got, wantSum)
	}
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := v.Sum(); got != goroutines*perG {
		t.Errorf("vec sum = %d, want %d", got, goroutines*perG)
	}
	// Scraping during concurrent writes must also be clean under -race.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := Lint(strings.NewReader(b.String())); err != nil {
		t.Errorf("lint after concurrent writes: %v", err)
	}
}

// TestWritePrometheusGolden pins the exact exposition bytes: HELP/TYPE
// lines, label escaping, cumulative _bucket/_sum/_count rendering and
// deterministic ordering.
func TestWritePrometheusGolden(t *testing.T) {
	r := New()
	c := r.Counter("genasm_jobs_total", "Jobs processed.")
	c.Add(3)
	v := r.CounterVec("genasm_errors_total", "Errors by kind.", "kind")
	v.With("bad_request").Add(2)
	v.With(`quote"back\slash` + "\nline").Inc()
	g := r.Gauge("genasm_queue_used", "Admission slots held.")
	g.Set(4)
	r.GaugeFunc("genasm_queue_depth", "Admission slot cap.", func() float64 { return 64 })
	h := r.Histogram("genasm_wait_seconds", "Waiting time.", []float64{0.005, 0.05, 0.5})
	h.Observe(0.001)
	h.Observe(0.01)
	h.Observe(0.01)
	h.Observe(0.75)
	hv := r.HistogramVec("genasm_req_seconds", "Request time.", []float64{0.1}, "endpoint")
	hv.With("/v1/align").Observe(0.05)

	const want = `# HELP genasm_jobs_total Jobs processed.
# TYPE genasm_jobs_total counter
genasm_jobs_total 3
# HELP genasm_errors_total Errors by kind.
# TYPE genasm_errors_total counter
genasm_errors_total{kind="bad_request"} 2
genasm_errors_total{kind="quote\"back\\slash\nline"} 1
# HELP genasm_queue_used Admission slots held.
# TYPE genasm_queue_used gauge
genasm_queue_used 4
# HELP genasm_queue_depth Admission slot cap.
# TYPE genasm_queue_depth gauge
genasm_queue_depth 64
# HELP genasm_wait_seconds Waiting time.
# TYPE genasm_wait_seconds histogram
genasm_wait_seconds_bucket{le="0.005"} 1
genasm_wait_seconds_bucket{le="0.05"} 3
genasm_wait_seconds_bucket{le="0.5"} 3
genasm_wait_seconds_bucket{le="+Inf"} 4
genasm_wait_seconds_sum 0.771
genasm_wait_seconds_count 4
# HELP genasm_req_seconds Request time.
# TYPE genasm_req_seconds histogram
genasm_req_seconds_bucket{endpoint="/v1/align",le="0.1"} 1
genasm_req_seconds_bucket{endpoint="/v1/align",le="+Inf"} 1
genasm_req_seconds_sum{endpoint="/v1/align"} 0.05
genasm_req_seconds_count{endpoint="/v1/align"} 1
`
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if err := Lint(strings.NewReader(b.String())); err != nil {
		t.Errorf("golden output fails lint: %v", err)
	}
}

func TestParseRoundTripsEscapes(t *testing.T) {
	in := `m_total{kind="a\"b\\c\nd"} 7` + "\n"
	samples, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].Labels["kind"] != "a\"b\\c\nd" || samples[0].Value != 7 {
		t.Errorf("parsed %+v", samples)
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"empty":            "",
		"no type":          "a_total 1\n",
		"garbage sample":   "# TYPE a counter\n{} what\n",
		"bad value":        "# TYPE a counter\na 1.2.3\n",
		"unclosed label":   "# TYPE a counter\na{x=\"y 1\n",
		"missing inf":      "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"count mismatch":   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"duplicate type":   "# TYPE a counter\n# TYPE a counter\na 1\n",
		"unknown type":     "# TYPE a widget\na 1\n",
		"malformed escape": "# TYPE a counter\na{x=\"\\q\"} 1\n",
	} {
		if err := Lint(strings.NewReader(in)); err == nil {
			t.Errorf("%s: lint accepted malformed input", name)
		}
	}
	good := "# HELP a_total x\n# TYPE a_total counter\na_total{k=\"v\"} 1\n" +
		"# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.3\nh_count 2\n"
	if err := Lint(strings.NewReader(good)); err != nil {
		t.Errorf("lint rejected valid exposition: %v", err)
	}
}

// TestObserveAllocFree pins that Observe and Counter.Add stay off the
// allocator — they sit on the alignment hot path.
func TestObserveAllocFree(t *testing.T) {
	r := New()
	h := r.Histogram("h_seconds", "h", nil)
	c := r.Counter("c_total", "c")
	allocs := testing.AllocsPerRun(100, func() {
		h.Observe(0.004)
		c.Add(2)
	})
	if allocs != 0 {
		t.Errorf("Observe+Add allocs/op = %v, want 0", allocs)
	}
}

func TestHistSnapshotQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("q_seconds", "q", []float64{0.001, 0.01, 0.1, 1})
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	// 100 observations spread evenly through (0, 0.001]: every quantile
	// interpolates inside the first bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.0005)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got <= 0 || got > 0.001 {
		t.Errorf("p50 = %v, want within (0, 0.001]", got)
	}
	// Push 100 more into (0.01, 0.1]: p99 lands in that bucket, p25 stays
	// in the first.
	for i := 0; i < 100; i++ {
		h.Observe(0.05)
	}
	s = h.Snapshot()
	if got := s.Quantile(0.99); got <= 0.01 || got > 0.1 {
		t.Errorf("p99 = %v, want within (0.01, 0.1]", got)
	}
	if got := s.Quantile(0.25); got > 0.001 {
		t.Errorf("p25 = %v, want <= 0.001", got)
	}
	// An observation beyond the last bound clamps to it.
	h.Observe(50)
	if got := h.Snapshot().Quantile(1); got != 1 {
		t.Errorf("p100 with +Inf observation = %v, want clamp to 1", got)
	}
}

func TestHistSnapshotMerge(t *testing.T) {
	r := New()
	v := r.HistogramVec("m_seconds", "m", []float64{0.01, 0.1}, "endpoint", "status")
	v.With("/a", "200").Observe(0.005)
	v.With("/a", "400").Observe(0.05)
	v.With("/b", "200").Observe(0.05)

	var merged HistSnapshot
	for _, ls := range v.Snapshot() {
		if ls.Labels[0] == "/a" {
			merged.Merge(ls.Hist)
		}
	}
	if got := merged.Count(); got != 2 {
		t.Fatalf("merged count = %d, want 2", got)
	}
	if want := 0.005 + 0.05; merged.Sum < want-1e-9 || merged.Sum > want+1e-9 {
		t.Errorf("merged sum = %v, want %v", merged.Sum, want)
	}
	if got := merged.Quantile(1); got <= 0.01 || got > 0.1 {
		t.Errorf("merged p100 = %v, want within (0.01, 0.1]", got)
	}
}
