package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"genasm"
	"genasm/internal/faults"
	"genasm/internal/metrics"
	"genasm/internal/registry"
)

// serverMetrics is every instrument the server exports on /metrics. The
// JSON counters of /v1/stats read from these same instruments, so the two
// views cannot drift. Handles used on per-read/per-alignment hot paths
// (the trace hooks below) are pre-resolved plain Counters and Histograms —
// no Vec lookups, no allocations.
type serverMetrics struct {
	reg *metrics.Registry

	// HTTP surface.
	requests *metrics.CounterVec   // genasm_http_requests_total{endpoint,status}
	latency  *metrics.HistogramVec // genasm_http_request_seconds{endpoint,status}
	errors   *metrics.CounterVec   // genasm_http_errors_total{kind}
	bytesIn  *metrics.Counter
	bytesOut *metrics.Counter
	inFlight *metrics.Gauge

	// Admission queue.
	admitted     *metrics.Counter
	rejected     *metrics.Counter
	admission    *metrics.CounterVec // genasm_admission_total{class,outcome}
	slotInFlight *metrics.Gauge

	// Work served.
	alignments       *metrics.Counter
	streamsStarted   *metrics.Counter
	streamsCompleted *metrics.Counter
	streamsTruncated *metrics.Counter

	// Engine (AlignTrace-fed).
	workspaceWait *metrics.Histogram
	alignSeconds  *metrics.Histogram
	alignErrors   *metrics.Counter

	// Mapping pipeline (MapTrace-fed).
	mapperReads      *metrics.Counter
	mapperMapped     *metrics.Counter
	mapperSeeds      *metrics.Counter
	mapperCandidates *metrics.Counter
	readSeconds      *metrics.Histogram
	stage            *metrics.HistogramVec // genasm_mapper_stage_seconds{stage,ref}

	// Reference registry: per-reference descriptors keyed by name, plus
	// load/evict lifecycle counters.
	indexBytes   *metrics.GaugeVec // genasm_index_bytes{ref}
	indexSeeds   *metrics.GaugeVec // genasm_index_seeds{ref}
	indexLoad    *metrics.GaugeVec // genasm_index_load_seconds{ref}
	indexInfo    *metrics.GaugeVec // genasm_index_info{ref,backend,source}
	refLoads     *metrics.Counter
	refEvictions *metrics.Counter

	// Resilience: recovered panics by site, failed reference load
	// attempts, and degraded-mode entries.
	panics          *metrics.CounterVec // genasm_panics_total{site}
	refLoadErrors   *metrics.Counter
	degradedEntered *metrics.Counter
}

// stageBuckets suit sub-millisecond pipeline stages better than the
// request-latency defaults (a seed scan runs in microseconds).
var stageBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
}

// newServerMetrics registers the server's instruments on a fresh registry.
// Queue, pool and reference-registry occupancy are GaugeFuncs sampled at
// scrape time straight from the live structures, so they need no upkeep on
// request paths.
func newServerMetrics(s *Server) *serverMetrics {
	r := metrics.New()
	m := &serverMetrics{
		reg: r,
		requests: r.CounterVec("genasm_http_requests_total",
			"HTTP requests served, by endpoint and status code.", "endpoint", "status"),
		latency: r.HistogramVec("genasm_http_request_seconds",
			"HTTP request latency in seconds, by endpoint and status code.",
			nil, "endpoint", "status"),
		errors: r.CounterVec("genasm_http_errors_total",
			"Request failures, by kind (bad_request, too_large, overload, input, internal, canceled, timeout, panic, stream_truncated, not_found, ref_load).",
			"kind"),
		bytesIn:  r.Counter("genasm_http_request_bytes_total", "Request body bytes read."),
		bytesOut: r.Counter("genasm_http_response_bytes_total", "Response body bytes written."),
		inFlight: r.Gauge("genasm_http_in_flight_requests", "Requests currently being handled."),
		admitted: r.Counter("genasm_requests_admitted_total",
			"Requests admitted to alignment work through the admission queue."),
		rejected: r.Counter("genasm_requests_rejected_total",
			"Requests rejected with 429 because the admission queue was full."),
		admission: r.CounterVec("genasm_admission_total",
			"Admission decisions, by priority class (interactive, batch) and outcome (admitted, rejected).",
			"class", "outcome"),
		slotInFlight: r.Gauge("genasm_queue_in_flight_requests",
			"Requests currently holding an admission slot."),
		alignments: r.Counter("genasm_alignments_total",
			"Individual alignments and mapped reads served."),
		streamsStarted: r.Counter("genasm_streams_started_total",
			"Streaming map requests admitted."),
		streamsCompleted: r.Counter("genasm_streams_completed_total",
			"Streaming map requests that drained to completion."),
		streamsTruncated: r.Counter("genasm_streams_truncated_total",
			"Streaming map requests cut short by input errors or dead clients."),
		workspaceWait: r.Histogram("genasm_workspace_wait_seconds",
			"Time alignments waited for a pooled workspace (saturation signal).", stageBuckets),
		alignSeconds: r.Histogram("genasm_align_seconds",
			"Time spent in the alignment kernel per engine alignment.", stageBuckets),
		alignErrors: r.Counter("genasm_align_errors_total",
			"Engine alignments that returned an error."),
		mapperReads: r.Counter("genasm_mapper_reads_total",
			"Reads that completed the mapping pipeline."),
		mapperMapped: r.Counter("genasm_mapper_mapped_total",
			"Reads that mapped (any candidate aligned)."),
		mapperSeeds: r.Counter("genasm_mapper_seeds_total",
			"Seed hits voting for candidate locations."),
		mapperCandidates: r.Counter("genasm_mapper_candidates_total",
			"Candidate locations produced by seeding."),
		readSeconds: r.Histogram("genasm_mapper_read_seconds",
			"End-to-end mapping pipeline time per read.", stageBuckets),
		stage: r.HistogramVec("genasm_mapper_stage_seconds",
			"Time per mapping pipeline stage invocation, by stage and reference (\"inline\" for request-supplied references).",
			stageBuckets, "stage", "ref"),
		indexBytes: r.GaugeVec("genasm_index_bytes",
			"In-memory footprint of a resident reference index (reference included), by name. 0 after eviction.",
			"ref"),
		indexSeeds: r.GaugeVec("genasm_index_seeds",
			"Seed positions in a resident reference index, by name. 0 after eviction.",
			"ref"),
		indexLoad: r.GaugeVec("genasm_index_load_seconds",
			"Wall time spent loading a reference index file (0 when the index was built in-process).",
			"ref"),
		indexInfo: r.GaugeVec("genasm_index_info",
			"Resident reference index descriptor (1 = resident, 0 = evicted); the labels carry the name, backend (hash, minimizer) and source (built, mmap, memory).",
			"ref", "backend", "source"),
		refLoads: r.Counter("genasm_ref_loads_total",
			"Reference indexes loaded (or registered) into the registry."),
		refEvictions: r.Counter("genasm_ref_evictions_total",
			"Reference indexes evicted or removed from the registry."),
		panics: r.CounterVec("genasm_panics_total",
			"Panics recovered at an isolation boundary, by site (align, handler, or a fault-injection site). Each pooled-path panic quarantines its workspace.",
			"site"),
		refLoadErrors: r.Counter("genasm_ref_load_errors_total",
			"Failed reference load attempts (each retry counts) plus index files skipped as corrupt during reload."),
		degradedEntered: r.Counter("genasm_degraded_entered_total",
			"Times the server entered degraded mode (batch work shed)."),
	}

	r.GaugeFunc("genasm_queue_used", "Admission slots currently held.",
		func() float64 { return float64(len(s.slots)) })
	r.GaugeFunc("genasm_queue_depth", "Admission slot capacity.",
		func() float64 { return float64(s.cfg.QueueDepth) })
	poolStat := func(f func(genasm.PoolStats) float64) func() float64 {
		return func() float64 { return f(s.cfg.Engine.Stats()) }
	}
	r.GaugeFunc("genasm_pool_workspaces_in_flight", "Workspaces currently checked out.",
		poolStat(func(st genasm.PoolStats) float64 { return float64(st.InFlight) }))
	r.GaugeFunc("genasm_pool_workspaces_idle", "Workspaces parked on free lists.",
		poolStat(func(st genasm.PoolStats) float64 { return float64(st.Idle) }))
	r.GaugeFunc("genasm_pool_capacity", "Configured workspace cap.",
		poolStat(func(st genasm.PoolStats) float64 { return float64(st.Capacity) }))
	r.GaugeFunc("genasm_pool_workspace_hits", "Workspace checkouts served from a free list.",
		poolStat(func(st genasm.PoolStats) float64 { return float64(st.Hits) }))
	r.GaugeFunc("genasm_pool_workspace_misses", "Workspace checkouts that built a new workspace.",
		poolStat(func(st genasm.PoolStats) float64 { return float64(st.Misses) }))
	r.GaugeFunc("genasm_pool_workspace_bytes", "Scratch footprint of one workspace.",
		poolStat(func(st genasm.PoolStats) float64 { return float64(st.WorkspaceBytes) }))

	// Registry occupancy. s.refs is wired after the metrics are built, so
	// the closures guard against sampling a half-constructed server.
	refStat := func(f func(registry.Stats) float64) func() float64 {
		return func() float64 {
			if s.refs == nil {
				return 0
			}
			return f(s.refs.Stats())
		}
	}
	r.GaugeFunc("genasm_refs_registered", "References registered in the registry.",
		refStat(func(st registry.Stats) float64 { return float64(st.Refs) }))
	r.GaugeFunc("genasm_refs_loaded", "References currently resident (loaded).",
		refStat(func(st registry.Stats) float64 { return float64(st.Loaded) }))
	r.GaugeFunc("genasm_refs_resident_bytes", "Summed on-disk bytes of resident file-backed references.",
		refStat(func(st registry.Stats) float64 { return float64(st.ResidentBytes) }))
	r.GaugeFunc("genasm_refs_max_resident_bytes", "Configured resident-bytes budget (0 = unbounded).",
		refStat(func(st registry.Stats) float64 { return float64(st.MaxResidentBytes) }))
	r.GaugeFunc("genasm_refs_breaker_open", "References whose load circuit breaker is currently open.",
		refStat(func(st registry.Stats) float64 { return float64(st.BreakerOpen) }))
	r.GaugeFunc("genasm_degraded", "1 while the server is in degraded mode (batch work shed), else 0.",
		func() float64 {
			if active, _ := s.degrade.state(); active {
				return 1
			}
			return 0
		})
	r.GaugeFunc("genasm_faults_active", "1 while a fault-injection spec is active (chaos testing), else 0.",
		func() float64 {
			if faults.Enabled() {
				return 1
			}
			return 0
		})
	return m
}

// recordPanic counts and logs a panic recovered at an isolation boundary:
// the one place panics become observable (metric by site, error log with
// the stack and request ID).
func (m *serverMetrics) recordPanic(ctx context.Context, logger *slog.Logger, pe *genasm.PanicError) {
	m.panics.With(pe.Site).Inc()
	logger.LogAttrs(ctx, slog.LevelError, "panic recovered; workspace quarantined",
		slog.String("rid", requestID(ctx)),
		slog.String("site", pe.Site),
		slog.String("value", fmt.Sprint(pe.Value)),
		slog.String("stack", string(pe.Stack)))
}

// refLoaded exports a reference that became resident: per-name size and
// load-time gauges plus an info-style descriptor whose labels carry the
// backend and origin — the standard pattern for dimensioning dashboards by
// deployment shape ("which backend is this fleet running?"). Wired to the
// registry's OnLoad hook.
func (m *serverMetrics) refLoaded(name string, st genasm.IndexStats) {
	m.refLoads.Inc()
	m.indexBytes.With(name).Set(st.Bytes)
	m.indexSeeds.With(name).Set(int64(st.Seeds))
	m.indexLoad.With(name).Set(int64(st.LoadTime.Seconds()))
	m.indexInfo.With(name, st.Backend, st.Source).Set(1)
}

// refEvicted zeroes a reference's descriptors when it leaves the resident
// set. Wired to the registry's OnEvict hook.
func (m *serverMetrics) refEvicted(name string, st genasm.IndexStats) {
	m.refEvictions.Inc()
	m.indexBytes.With(name).Set(0)
	m.indexSeeds.With(name).Set(0)
	m.indexLoad.With(name).Set(0)
	m.indexInfo.With(name, st.Backend, st.Source).Set(0)
}

// alignTrace adapts the registry into engine-level hooks for the serving
// engine. They fire for /v1/align and /v1/batch alignments; mapped
// candidates report through mapTraceFor's AlignDone instead.
func (m *serverMetrics) alignTrace() *genasm.AlignTrace {
	return &genasm.AlignTrace{
		WorkspaceAcquired: func(wait time.Duration) { m.workspaceWait.Observe(wait.Seconds()) },
		Done: func(textLen, queryLen int, d time.Duration, err error) {
			m.alignSeconds.Observe(d.Seconds())
			if err != nil {
				m.alignErrors.Inc()
			}
		},
	}
}

// mapTraceFor adapts the registry into mapping pipeline hooks for one
// named reference — the metrics-backed trace every server-built Mapper
// carries. The per-stage histogram handles are resolved once per mapper,
// so the per-read hot path does no Vec lookups. Request-supplied inline
// references share the "inline" label to keep cardinality bounded.
func (m *serverMetrics) mapTraceFor(ref string) *genasm.MapTrace {
	stageSeed := m.stage.With("seed", ref)
	stageAlign := m.stage.With("align", ref)
	return &genasm.MapTrace{
		SeedingDone: func(seeds, candidates int, d time.Duration) {
			m.mapperSeeds.Add(uint64(seeds))
			m.mapperCandidates.Add(uint64(candidates))
			stageSeed.Observe(d.Seconds())
		},
		AlignDone: func(ok bool, d time.Duration) { stageAlign.Observe(d.Seconds()) },
		ReadDone: func(candidates, filtered, accepted int, mapped bool, d time.Duration) {
			m.mapperReads.Inc()
			if mapped {
				m.mapperMapped.Inc()
			}
			m.readSeconds.Observe(d.Seconds())
		},
	}
}

// latency summaries ------------------------------------------------------

// LatencySummary is the percentile digest of one latency histogram, in
// milliseconds. Percentiles are bucket-interpolated estimates (the same
// histogram_quantile would compute from /metrics), precomputed server-side
// so loadgen and humans can read them without a scrape-and-quantile step.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// LatencyStats groups the server's latency digests for /v1/stats.
type LatencyStats struct {
	// Endpoints is keyed by endpoint label, merged across status codes.
	Endpoints map[string]LatencySummary `json:"endpoints"`
	// Stages is keyed by mapping pipeline stage (seed, align),
	// merged across references.
	Stages map[string]LatencySummary `json:"stages"`
	// Read is the end-to-end mapping pipeline time per read.
	Read LatencySummary `json:"read"`
	// Align is kernel time per engine alignment; WorkspaceWait the wait
	// for a pooled workspace (saturation signal).
	Align         LatencySummary `json:"align"`
	WorkspaceWait LatencySummary `json:"workspace_wait"`
}

// summarize digests one histogram snapshot into milliseconds.
func summarize(s metrics.HistSnapshot) LatencySummary {
	n := s.Count()
	out := LatencySummary{Count: n}
	if n == 0 {
		return out
	}
	const ms = 1e3
	out.MeanMs = s.Sum / float64(n) * ms
	out.P50Ms = s.Quantile(0.50) * ms
	out.P95Ms = s.Quantile(0.95) * ms
	out.P99Ms = s.Quantile(0.99) * ms
	return out
}

// summarizeBy merges a Vec's children by one label position and digests
// each group.
func summarizeBy(v *metrics.HistogramVec, label int) map[string]LatencySummary {
	groups := make(map[string]metrics.HistSnapshot)
	for _, ls := range v.Snapshot() {
		key := ls.Labels[label]
		g := groups[key]
		g.Merge(ls.Hist)
		groups[key] = g
	}
	out := make(map[string]LatencySummary, len(groups))
	for key, g := range groups {
		out[key] = summarize(g)
	}
	return out
}

// latencyStats digests the live latency histograms.
func (m *serverMetrics) latencyStats() LatencyStats {
	return LatencyStats{
		Endpoints:     summarizeBy(m.latency, 0),
		Stages:        summarizeBy(m.stage, 0),
		Read:          summarize(m.readSeconds.Snapshot()),
		Align:         summarize(m.alignSeconds.Snapshot()),
		WorkspaceWait: summarize(m.workspaceWait.Snapshot()),
	}
}

// request instrumentation ------------------------------------------------

// endpointLabel normalizes a request path to the served route set, keeping
// label cardinality bounded no matter what paths clients probe. The
// reference admin endpoints collapse onto "/v1/refs" (names are not
// labels here; per-reference dimensions live on the genasm_index_* and
// stage metrics).
func endpointLabel(path string) string {
	switch path {
	case "/v1/align", "/v1/batch", "/v1/map", "/v1/map/stream",
		"/v1/healthz", "/v1/stats", "/v1/refs", "/metrics":
		return path
	}
	if strings.HasPrefix(path, "/v1/refs/") {
		return "/v1/refs"
	}
	return "other"
}

// ridKey carries the request ID through the request context.
type ridKey struct{}

// requestID returns the middleware-assigned ID, or "-" outside a request.
func requestID(ctx context.Context) string {
	if id, ok := ctx.Value(ridKey{}).(string); ok {
		return id
	}
	return "-"
}

// statusRecorder captures the status code and response size flowing
// through a ResponseWriter. Unwrap keeps http.NewResponseController
// working (the streaming endpoints need Flush and EnableFullDuplex).
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// countingBody counts request body bytes as the handler reads them.
type countingBody struct {
	rc io.ReadCloser
	n  int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error { return b.rc.Close() }

// instrument wraps the route mux with the observability middleware: a
// request ID, per-endpoint/status counters and latency histograms, byte
// accounting, and request-scoped slog logging.
func (s *Server) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("%08x-%06x", s.ridBase, s.ridSeq.Add(1))
		r = r.WithContext(context.WithValue(r.Context(), ridKey{}, id))
		body := &countingBody{rc: r.Body}
		r.Body = body
		rec := &statusRecorder{ResponseWriter: w}
		s.m.inFlight.Inc()
		start := time.Now()
		func() {
			// Last-resort isolation: a panic that escapes a handler (the
			// pooled paths recover their own) must not kill the process or
			// leave the connection without an envelope.
			defer func() {
				if rv := recover(); rv != nil {
					if rv == http.ErrAbortHandler {
						panic(rv)
					}
					s.m.panics.With("handler").Inc()
					s.logger.LogAttrs(r.Context(), slog.LevelError, "handler panic recovered",
						slog.String("rid", id),
						slog.String("path", r.URL.Path),
						slog.String("value", fmt.Sprint(rv)),
						slog.String("stack", string(debug.Stack())))
					if rec.status == 0 {
						s.m.errors.With("internal").Inc()
						writeError(rec, http.StatusInternalServerError, "internal",
							"internal server error (panic recovered)", id)
					}
				}
			}()
			h.ServeHTTP(rec, r)
		}()
		d := time.Since(start)
		s.m.inFlight.Dec()

		status := rec.status
		if status == 0 {
			// Handler wrote nothing (e.g. client vanished mid-align);
			// net/http will send 200 with an empty body.
			status = http.StatusOK
		}
		endpoint := endpointLabel(r.URL.Path)
		code := strconv.Itoa(status)
		s.m.requests.With(endpoint, code).Inc()
		s.m.latency.With(endpoint, code).Observe(d.Seconds())
		s.m.bytesIn.Add(uint64(body.n))
		s.m.bytesOut.Add(uint64(rec.bytes))
		s.logger.LogAttrs(r.Context(), slog.LevelDebug, "request",
			slog.String("rid", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Duration("duration", d),
			slog.Int64("bytes_in", body.n),
			slog.Int64("bytes_out", rec.bytes),
		)
	})
}
