package loadgen

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"genasm/internal/metrics"
	"genasm/internal/server"
	"genasm/internal/stats"
)

// EndpointResult summarizes one endpoint's outcomes over a phase or the
// whole run. Latency percentiles cover successful (2xx) requests only, so
// fast-failing sheds cannot flatter the tail.
type EndpointResult struct {
	Attempts  uint64 `json:"attempts"`
	Completed uint64 `json:"completed"`
	// Errors counts transport failures and 5xx responses.
	Errors uint64 `json:"errors"`
	// Shed counts 429 responses (admission control working, not errors).
	Shed     uint64 `json:"shed"`
	Other4xx uint64 `json:"other_4xx,omitempty"`
	// StatusCounts keys are status codes as strings ("200", "429").
	StatusCounts map[string]uint64 `json:"status_counts,omitempty"`
	// EnvelopeCodes tallies the error-envelope "code" field of failed
	// JSON responses.
	EnvelopeCodes map[string]uint64 `json:"envelope_codes,omitempty"`
	// MissingEnvelopes counts JSON error responses that lacked a parseable
	// error envelope — contract violations the require_envelopes gate
	// turns into failures.
	MissingEnvelopes uint64  `json:"missing_envelopes,omitempty"`
	MeanMs           float64 `json:"mean_ms"`
	P50Ms            float64 `json:"p50_ms"`
	P95Ms            float64 `json:"p95_ms"`
	P99Ms            float64 `json:"p99_ms"`
	P999Ms           float64 `json:"p999_ms"`
	MaxMs            float64 `json:"max_ms"`
}

// PhaseResult is one phase's measurements.
type PhaseResult struct {
	Name        string                    `json:"name"`
	Mode        string                    `json:"mode"`
	Warmup      bool                      `json:"warmup,omitempty"`
	DurationSec float64                   `json:"duration_sec"`
	AchievedQPS float64                   `json:"achieved_qps"`
	Dropped     uint64                    `json:"dropped,omitempty"`
	Endpoints   map[string]EndpointResult `json:"endpoints"`
}

// ScenarioResult is one scenario's full measurement record.
type ScenarioResult struct {
	Scenario    string        `json:"scenario"`
	Description string        `json:"description,omitempty"`
	Target      string        `json:"target"`
	Seed        uint64        `json:"seed"`
	Phases      []PhaseResult `json:"phases"`
	// Aggregate merges all non-warmup phases; gates evaluate against it.
	Aggregate map[string]EndpointResult `json:"aggregate"`
	ErrorRate float64                   `json:"error_rate"`
	ShedRate  float64                   `json:"shed_rate"`
	// GateFailures is empty when the scenario's gates (if any) passed.
	GateFailures []string     `json:"gate_failures,omitempty"`
	Server       *ServerDelta `json:"server,omitempty"`

	aggHists map[string]*Histogram
}

// addPhase folds one finished phase collector into the result.
func (sr *ScenarioResult) addPhase(p *Phase, col *collector, elapsed time.Duration) {
	pr := PhaseResult{
		Name:        p.Name,
		Mode:        p.Mode,
		Warmup:      p.Warmup,
		DurationSec: elapsed.Seconds(),
		Dropped:     col.dropped,
		Endpoints:   make(map[string]EndpointResult, len(col.byEndpoint)),
	}
	var completed uint64
	for path, es := range col.byEndpoint {
		pr.Endpoints[path] = endpointResult(es)
		completed += es.completed
		if !p.Warmup {
			if sr.aggHists == nil {
				sr.aggHists = make(map[string]*Histogram)
				sr.Aggregate = make(map[string]EndpointResult)
			}
			h := sr.aggHists[path]
			if h == nil {
				h = &Histogram{}
				sr.aggHists[path] = h
			}
			h.Merge(&es.hist)
			agg := sr.Aggregate[path]
			agg.Attempts += es.attempts
			agg.Completed += es.completed
			agg.Errors += es.errors
			agg.Shed += es.shed
			agg.Other4xx += es.other4xx
			agg.StatusCounts = mergeCounts(agg.StatusCounts, statusStrings(es.status))
			agg.EnvelopeCodes = mergeCounts(agg.EnvelopeCodes, es.envelope)
			agg.MissingEnvelopes += es.noEnvelope
			sr.Aggregate[path] = agg
		}
	}
	if elapsed > 0 {
		pr.AchievedQPS = float64(completed) / elapsed.Seconds()
	}
	sr.Phases = append(sr.Phases, pr)
}

// finishAggregate fills the aggregate percentiles and run-level rates.
func (sr *ScenarioResult) finishAggregate() {
	var attempts, errors, shed uint64
	for path, agg := range sr.Aggregate {
		fillQuantiles(&agg, sr.aggHists[path])
		sr.Aggregate[path] = agg
		attempts += agg.Attempts
		errors += agg.Errors
		shed += agg.Shed
	}
	if attempts > 0 {
		sr.ErrorRate = float64(errors) / float64(attempts)
		sr.ShedRate = float64(shed) / float64(attempts)
	}
}

func endpointResult(es *endpointStats) EndpointResult {
	r := EndpointResult{
		Attempts:         es.attempts,
		Completed:        es.completed,
		Errors:           es.errors,
		Shed:             es.shed,
		Other4xx:         es.other4xx,
		StatusCounts:     statusStrings(es.status),
		EnvelopeCodes:    copyCounts(es.envelope),
		MissingEnvelopes: es.noEnvelope,
	}
	fillQuantiles(&r, &es.hist)
	return r
}

func fillQuantiles(r *EndpointResult, h *Histogram) {
	if h == nil || h.Count() == 0 {
		return
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	r.MeanMs = ms(h.Mean())
	r.P50Ms = ms(h.Quantile(0.50))
	r.P95Ms = ms(h.Quantile(0.95))
	r.P99Ms = ms(h.Quantile(0.99))
	r.P999Ms = ms(h.Quantile(0.999))
	r.MaxMs = ms(h.Max())
}

func statusStrings(m map[int]uint64) map[string]uint64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[strconv.Itoa(k)] = v
	}
	return out
}

func copyCounts(m map[string]uint64) map[string]uint64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func mergeCounts(dst, src map[string]uint64) map[string]uint64 {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]uint64, len(src))
	}
	for k, v := range src {
		dst[k] += v
	}
	return dst
}

// EvaluateGates checks a result against its gates and returns one line per
// violation (empty slice means pass).
func EvaluateGates(g *Gates, sr *ScenarioResult) []string {
	var fails []string
	for path, agg := range sr.Aggregate {
		limit, ok := g.MaxP99Ms[path]
		if !ok {
			limit, ok = g.MaxP99Ms["*"]
		}
		if ok && agg.Completed > 0 && agg.P99Ms > limit {
			fails = append(fails, fmt.Sprintf("%s: p99 %.2fms exceeds gate %.2fms", path, agg.P99Ms, limit))
		}
	}
	if g.MaxErrorRate > 0 && sr.ErrorRate > g.MaxErrorRate {
		fails = append(fails, fmt.Sprintf("error rate %.4f exceeds gate %.4f", sr.ErrorRate, g.MaxErrorRate))
	}
	if g.MaxShedRate > 0 && sr.ShedRate > g.MaxShedRate {
		fails = append(fails, fmt.Sprintf("shed rate %.4f exceeds gate %.4f", sr.ShedRate, g.MaxShedRate))
	}
	if g.RequireEnvelopes {
		for path, agg := range sr.Aggregate {
			if agg.MissingEnvelopes > 0 {
				fails = append(fails, fmt.Sprintf("%s: %d error responses missing the error envelope", path, agg.MissingEnvelopes))
			}
		}
	}
	sort.Strings(fails)
	return fails
}

// server-side snapshots ----------------------------------------------------

// ServerSnapshot is one capture of the server's own view: the /v1/stats
// JSON (typed against the server package, so schema drift is a compile
// error) plus the parsed /metrics samples.
type ServerSnapshot struct {
	Stats   server.StatsResponse
	Samples []metrics.Sample
}

// CaptureServerSnapshot scrapes /v1/stats and /metrics.
func CaptureServerSnapshot(client *http.Client, target string) (*ServerSnapshot, error) {
	base := strings.TrimRight(target, "/")
	snap := &ServerSnapshot{}
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&snap.Stats)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("loadgen: decode /v1/stats: %w", err)
	}
	mresp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	snap.Samples, err = metrics.Parse(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("loadgen: parse /metrics: %w", err)
	}
	return snap, nil
}

// FetchRefNames lists the reference names registered on the server
// (GET /v1/refs), sorted; scenarios with ref "*" fan out across them.
func FetchRefNames(client *http.Client, target string) ([]string, error) {
	resp, err := client.Get(strings.TrimRight(target, "/") + "/v1/refs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var refs server.RefsResponse
	if err := json.NewDecoder(resp.Body).Decode(&refs); err != nil {
		return nil, fmt.Errorf("loadgen: decode /v1/refs: %w", err)
	}
	names := make([]string, 0, len(refs.Refs))
	for _, r := range refs.Refs {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	return names, nil
}

func (s *ServerSnapshot) counter(name string) float64 {
	var total float64
	for _, smp := range s.Samples {
		if smp.Name == name {
			total += smp.Value
		}
	}
	return total
}

// ServerDelta attaches the server's own accounting of the run to the
// report: admission and error counters as before/after differences,
// registry churn, and the server-reported latency summaries at run end.
type ServerDelta struct {
	Requests    uint64 `json:"requests"`
	Alignments  uint64 `json:"alignments"`
	Streams     uint64 `json:"streams"`
	Rejected    uint64 `json:"rejected"`
	Errored     uint64 `json:"errored"`
	RefLoads    uint64 `json:"ref_loads"`
	Evictions   uint64 `json:"ref_evictions"`
	MapperReads uint64 `json:"mapper_reads"`
	// QueueUsedAfter and QueueDepth are the post-run occupancy (non-zero
	// occupancy after the run means requests were still draining).
	QueueUsedAfter int `json:"queue_used_after"`
	QueueDepth     int `json:"queue_depth"`
	// Latency is the server's own post-run latency view (/v1/stats),
	// for correlating client-observed percentiles with server-measured
	// ones — a gap between the two is queueing outside the server.
	Latency server.LatencyStats `json:"latency"`
}

// DiffSnapshots computes the server-side delta across a run.
func DiffSnapshots(before, after *ServerSnapshot) *ServerDelta {
	d := &ServerDelta{
		Requests:       after.Stats.Server.Requests - before.Stats.Server.Requests,
		Alignments:     after.Stats.Server.Alignments - before.Stats.Server.Alignments,
		Streams:        after.Stats.Server.Streams - before.Stats.Server.Streams,
		Rejected:       after.Stats.Server.Rejected - before.Stats.Server.Rejected,
		Errored:        after.Stats.Server.Errored - before.Stats.Server.Errored,
		QueueUsedAfter: after.Stats.Server.QueueUsed,
		QueueDepth:     after.Stats.Server.QueueDepth,
		Latency:        after.Stats.Latency,
	}
	cdelta := func(name string) uint64 {
		v := after.counter(name) - before.counter(name)
		if v < 0 {
			return 0
		}
		return uint64(v)
	}
	d.RefLoads = cdelta("genasm_ref_loads_total")
	d.Evictions = cdelta("genasm_ref_evictions_total")
	d.MapperReads = cdelta("genasm_mapper_reads_total")
	return d
}

// report file --------------------------------------------------------------

// Report is the BENCH_load-<label>.json schema: the BenchFile envelope
// that genasm-bench -compare reads, with the full load measurements
// attached under "load".
type Report struct {
	stats.BenchFile
	Load []*ScenarioResult `json:"load"`
}

// BuildReport assembles the report for a set of scenario results. Each
// aggregate endpoint contributes Load/<scenario>/<endpoint>/p{50,95,99}
// pseudo-benchmarks whose ns_per_op is the percentile, so the existing
// regression gate tracks service latency with no new tooling.
func BuildReport(label string, results []*ScenarioResult) *Report {
	rep := &Report{BenchFile: stats.NewBenchFile(label), Load: results}
	for _, sr := range results {
		paths := make([]string, 0, len(sr.Aggregate))
		for path := range sr.Aggregate {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			agg := sr.Aggregate[path]
			if agg.Completed == 0 {
				continue
			}
			ep := strings.ReplaceAll(strings.TrimPrefix(path, "/v1/"), "/", "_")
			for _, q := range []struct {
				name string
				ms   float64
			}{{"p50", agg.P50Ms}, {"p95", agg.P95Ms}, {"p99", agg.P99Ms}} {
				rep.Benchmarks = append(rep.Benchmarks, stats.BenchResult{
					Name:       fmt.Sprintf("Load/%s/%s/%s", sr.Scenario, ep, q.name),
					Iterations: int(agg.Completed),
					NsPerOp:    q.ms * float64(time.Millisecond),
				})
			}
		}
	}
	return rep
}

// GatesPassed reports whether every scenario's gates held.
func GatesPassed(results []*ScenarioResult) bool {
	for _, sr := range results {
		if len(sr.GateFailures) > 0 {
			return false
		}
	}
	return true
}
