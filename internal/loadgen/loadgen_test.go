package loadgen_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"genasm"
	"genasm/internal/alphabet"
	"genasm/internal/loadgen"
	"genasm/internal/seq"
	"genasm/internal/server"
)

func testGenome(t *testing.T, seed uint64, n int) string {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0))
	return string(alphabet.DNA.Decode(seq.Genome(rng, seq.DefaultGenomeConfig(n))))
}

func startServer(t *testing.T, genome string) string {
	t.Helper()
	e, err := genasm.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Engine: e, Ref: []byte(genome), RefName: "chr1"})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("serve returned %v, want ErrServerClosed", err)
		}
	})
	return "http://" + l.Addr().String()
}

func TestParseScenarios(t *testing.T) {
	scs, err := loadgen.ParseScenarios([]byte(`[
	  {"name": "a", "corpus": {"genome_len": 5000, "reads": 4},
	   "mix": [{"endpoint": "align"}],
	   "phases": [{"duration": "1s", "qps": 10}]},
	  {"name": "b", "corpus": {"reads": 4},
	   "mix": [{"endpoint": "map", "reads": 2, "weight": 3}],
	   "phases": [{"duration": 2, "mode": "closed", "concurrency": 4}]}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 {
		t.Fatalf("got %d scenarios, want 2", len(scs))
	}
	if d := time.Duration(scs[0].Phases[0].Duration); d != time.Second {
		t.Errorf("string duration = %v, want 1s", d)
	}
	if d := time.Duration(scs[1].Phases[0].Duration); d != 2*time.Second {
		t.Errorf("numeric duration = %v, want 2s", d)
	}
	if scs[0].Mix[0].Weight != 1 {
		t.Errorf("default weight = %v, want 1", scs[0].Mix[0].Weight)
	}

	for _, bad := range []string{
		`{"name": "x", "mix": [], "phases": [{"duration": "1s", "qps": 1}]}`,
		`{"name": "x", "mix": [{"endpoint": "nope"}], "phases": [{"duration": "1s", "qps": 1}]}`,
		`{"name": "x", "mix": [{"endpoint": "align"}], "phases": []}`,
		`{"name": "x", "mix": [{"endpoint": "align"}], "phases": [{"duration": "1s"}]}`,
		`{"name": "x", "mix": [{"endpoint": "align"}], "phases": [{"duration": "1s", "mode": "closed"}]}`,
		`{"name": "x", "mix": [{"endpoint": "align", "priority": "vip"}], "phases": [{"duration": "1s", "qps": 1}]}`,
	} {
		if _, err := loadgen.ParseScenarios([]byte(bad)); err == nil {
			t.Errorf("ParseScenarios accepted invalid scenario: %s", bad)
		}
	}
}

func TestScenarioScale(t *testing.T) {
	sc := &loadgen.Scenario{
		Name: "s",
		Mix:  []loadgen.RequestSpec{{Endpoint: "align"}},
		Phases: []loadgen.Phase{
			{Name: "p", Duration: loadgen.Duration(10 * time.Second), QPS: 5},
		},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	sc.Scale(0.1)
	if d := sc.Duration(); d != time.Second {
		t.Errorf("scaled duration = %v, want 1s", d)
	}
	sc.Scale(0.0001)
	if d := sc.Duration(); d != 100*time.Millisecond {
		t.Errorf("floor duration = %v, want 100ms", d)
	}
}

// TestRunnerAgainstServer drives a short mixed scenario at a live server
// and checks the whole chain: corpus build, open+closed phases, latency
// aggregation, server snapshot deltas and gate evaluation.
func TestRunnerAgainstServer(t *testing.T) {
	genome := testGenome(t, 99, 30_000)
	target := startServer(t, genome)

	scs, err := loadgen.ParseScenarios([]byte(`{
	  "name": "it",
	  "seed": 7,
	  "corpus": {"profile": "illumina-100", "reads": 16},
	  "mix": [
	    {"endpoint": "align", "weight": 2},
	    {"endpoint": "map", "ref": "chr1", "reads": 2},
	    {"endpoint": "map_stream", "ref": "chr1", "reads": 2, "gzip": true}
	  ],
	  "phases": [
	    {"name": "warm", "duration": "200ms", "qps": 40, "warmup": true},
	    {"name": "steady", "duration": "600ms", "qps": 60, "ramp_to_qps": 120},
	    {"name": "closed", "duration": "300ms", "mode": "closed", "concurrency": 4}
	  ],
	  "gates": {"max_p99_ms": {"*": 60000}, "max_error_rate": 0.01}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sc := scs[0]
	corpus, err := loadgen.BuildCorpus(sc, []string{"chr1"}, map[string]string{"chr1": genome})
	if err != nil {
		t.Fatal(err)
	}
	r := &loadgen.Runner{Target: target, Scenario: sc, Corpus: corpus, Logf: t.Logf}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(res.Phases))
	}
	for _, path := range []string{"/v1/align", "/v1/map", "/v1/map/stream"} {
		agg, ok := res.Aggregate[path]
		if !ok {
			t.Fatalf("aggregate missing %s (have %v)", path, keys(res.Aggregate))
		}
		if agg.Completed == 0 {
			t.Errorf("%s: no completed requests (attempts=%d errors=%d)", path, agg.Attempts, agg.Errors)
		}
		if agg.Completed > 0 && !(agg.P50Ms > 0 && agg.P50Ms <= agg.P95Ms && agg.P95Ms <= agg.P99Ms) {
			t.Errorf("%s: percentiles not ordered: p50=%v p95=%v p99=%v", path, agg.P50Ms, agg.P95Ms, agg.P99Ms)
		}
		if agg.Errors != 0 {
			t.Errorf("%s: %d errors", path, agg.Errors)
		}
	}
	// Warmup traffic must not leak into the aggregate.
	var warm, agg uint64
	for _, ep := range res.Phases[0].Endpoints {
		warm += ep.Attempts
	}
	for _, ep := range res.Aggregate {
		agg += ep.Attempts
	}
	var later uint64
	for _, ph := range res.Phases[1:] {
		for _, ep := range ph.Endpoints {
			later += ep.Attempts
		}
	}
	if warm == 0 {
		t.Error("warmup phase issued no requests")
	}
	if agg != later {
		t.Errorf("aggregate attempts = %d, want %d (non-warmup only)", agg, later)
	}
	if res.Server == nil {
		t.Fatal("no server delta captured")
	}
	if res.Server.Requests == 0 || res.Server.Alignments == 0 {
		t.Errorf("server delta did not move: %+v", res.Server)
	}
	if res.Server.Streams == 0 {
		t.Errorf("server saw no streams despite map_stream traffic")
	}
	if len(res.GateFailures) != 0 {
		t.Errorf("gates failed: %v", res.GateFailures)
	}
	if res.ErrorRate != 0 {
		t.Errorf("error rate = %v, want 0", res.ErrorRate)
	}

	rep := loadgen.BuildReport("test", []*loadgen.ScenarioResult{res})
	if len(rep.Benchmarks) != 9 { // 3 endpoints × p50/p95/p99
		t.Fatalf("report has %d benchmarks, want 9", len(rep.Benchmarks))
	}
	for _, b := range rep.Benchmarks {
		if !strings.HasPrefix(b.Name, "Load/it/") || b.NsPerOp <= 0 {
			t.Errorf("bad benchmark entry %+v", b)
		}
	}
	if !loadgen.GatesPassed([]*loadgen.ScenarioResult{res}) {
		t.Error("GatesPassed = false on passing run")
	}
}

func TestGateFailure(t *testing.T) {
	genome := testGenome(t, 5, 20_000)
	target := startServer(t, genome)
	scs, err := loadgen.ParseScenarios([]byte(`{
	  "name": "strict",
	  "corpus": {"profile": "illumina-100", "reads": 8},
	  "mix": [{"endpoint": "align"}],
	  "phases": [{"duration": "200ms", "mode": "closed", "concurrency": 2}],
	  "gates": {"max_p99_ms": {"/v1/align": 0.000001}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := loadgen.BuildCorpus(scs[0], nil, map[string]string{"": genome})
	if err != nil {
		t.Fatal(err)
	}
	r := &loadgen.Runner{Target: target, Scenario: scs[0], Corpus: corpus}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GateFailures) == 0 {
		t.Fatal("impossible p99 gate did not fail")
	}
	if loadgen.GatesPassed([]*loadgen.ScenarioResult{res}) {
		t.Error("GatesPassed = true on failing run")
	}
}

// TestReportRoundTrip pins the report schema: the committed load and chaos
// reports decode into Report and encode back byte for byte, as
// genasm-loadgen -out writes them.
func TestReportRoundTrip(t *testing.T) {
	for _, path := range []string{"../../BENCH_load-smoke.json", "../../BENCH_chaos.json"} {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep loadgen.Report
		if err := json.Unmarshal(want, &rep); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got, '\n'); !bytes.Equal(got, want) {
			t.Errorf("%s does not re-encode byte-identically", path)
		}
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
