// Package server exposes the GenASM alignment engine as a long-running
// HTTP JSON service — the serving layer that turns the library into the
// ROADMAP's production system. All alignment work is drained through a
// shared genasm.Engine (the software analogue of the accelerator's fixed
// count of per-vault GenASM units, Section 7), so concurrency is bounded
// by the engine capacity and excess load queues in a bounded admission
// queue rather than piling up goroutines; when the queue is full, requests
// are rejected with 429 so clients can back off. Requests carry a priority
// class ("X-Genasm-Priority: interactive|batch"): batch traffic is shed
// first, before the queue saturates, so interactive latency survives bulk
// load.
//
// The server serves many named references at once through an internal
// registry (the software mirror of the accelerator partitioning the
// reference across vaults): references are registered from a directory of
// prebuilt index files (-ref-dir), mmap-loaded lazily on first use,
// evicted under a resident-bytes budget, and pinned by in-flight requests
// so eviction never unmaps an index mid-request. Mapping requests name
// their reference with a "ref" body field or query parameter; with exactly
// one reference registered it may be omitted.
//
// Endpoints:
//
//	POST   /v1/align            — one alignment: {"text","query","global"}
//	POST   /v1/batch            — many alignments, results in request order
//	POST   /v1/map[?ref=name]   — read mapping; responds with SAM records
//	POST   /v1/map/stream[?ref=name] — streaming read mapping: FASTA/FASTQ/
//	                              NDJSON body in, flushed-per-record NDJSON
//	                              or SAM out, in bounded memory
//	GET    /v1/refs             — reference registry listing (JSON)
//	POST   /v1/refs/{name}/load — force a reference resident
//	DELETE /v1/refs/{name}      — remove a reference (in-flight requests
//	                              finish; new ones get 404)
//	POST   /v1/refs/reload      — re-scan the -ref-dir directory
//	GET    /v1/healthz          — liveness ("degraded" + 503 when saturated
//	                              or shutting down)
//	GET    /v1/stats            — pool + server + registry counters (JSON)
//	GET    /metrics             — Prometheus text exposition
//
// Every non-2xx response carries the JSON error envelope
// {"error":{"code","message","request_id"}}, with code matching the
// genasm_http_errors_total{kind} label. Every request flows through an
// observability middleware: per-endpoint/per-status counters and latency
// histograms, byte accounting, request IDs and structured (log/slog)
// logging. The mapping pipeline and both engines carry metrics-backed
// trace hooks (genasm.MapTrace / genasm.AlignTrace), so /metrics breaks
// serving time down by pipeline stage and reference. The /v1/stats JSON
// counters are read from the same registry, so the two views cannot
// drift. OpsHandler serves /metrics plus net/http/pprof for a private
// operations listener.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"genasm"
	"genasm/internal/mapper"
	"genasm/internal/metrics"
	"genasm/internal/registry"
)

// Config parameterizes a Server. The zero values of the limits pick
// sensible production defaults; Engine is required.
type Config struct {
	// Engine is the shared alignment engine. Required. The server attaches
	// a metrics-backed genasm.AlignTrace to it.
	Engine *genasm.Engine
	// QueueDepth bounds the number of requests admitted to alignment
	// work at once (in flight + queued waiting for a workspace). Further
	// requests receive 429. Defaults to 4× the engine capacity.
	QueueDepth int
	// InteractiveReserve holds back admission slots for the interactive
	// priority class: batch requests ("X-Genasm-Priority: batch") are
	// rejected once queue occupancy reaches QueueDepth−InteractiveReserve,
	// so bulk load is shed before it can crowd out interactive traffic.
	// Defaults to a quarter of QueueDepth (at least 1).
	InteractiveReserve int
	// MaxBodyBytes caps a request body. Defaults to 8 MiB.
	MaxBodyBytes int64
	// MaxBatchJobs caps the jobs in one /v1/batch request. Defaults to
	// 1024.
	MaxBatchJobs int
	// MaxSeqLen caps each text/query sequence length. Defaults to 1 MiB.
	MaxSeqLen int
	// MaxMapReads caps the reads in one /v1/map request. Defaults to
	// 1024.
	MaxMapReads int
	// MaxRefLen caps a request-supplied /v1/map reference (each such
	// request indexes the reference from scratch). Defaults to 16 MiB,
	// though MaxBodyBytes usually bounds it tighter.
	MaxRefLen int
	// MaxStreamBytes caps a /v1/map/stream request body — applied to the
	// wire bytes and again to the decompressed stream, so gzipped input
	// cannot expand past it. Streaming requests run in bounded memory
	// regardless of body size, so this defaults much higher than
	// MaxBodyBytes: 1 GiB.
	MaxStreamBytes int64
	// MapSeedK and MapErrorRate parameterize the /v1/map pipeline
	// (defaults: the mapper's own 15 / 0.10). MapSeedK applies to
	// references indexed by this server (Config.Ref and request-supplied
	// ones); file-loaded indexes carry their own seed length.
	MapSeedK     int
	MapErrorRate float64
	// RefName and Ref optionally register an in-memory DNA reference
	// (letters) at startup: the index is built once at boot and registered
	// under RefName (default "ref").
	RefName string
	Ref     []byte
	// RefIndexPath registers a reference from a prebuilt index file (see
	// `genasm index build`): the file is validated and mmap-loaded at
	// boot, under RefName or — when RefName is empty — the name recorded
	// in the file. Mutually exclusive with Ref; MapSeedK must be left
	// zero (the seed length is baked into the file).
	RefIndexPath string
	// RefDir registers every *.gasmidx/*.gidx file in a directory as a
	// named reference (the basename, sans extension, is the name). The
	// indexes are mmap-loaded lazily on first use and the directory can
	// be re-scanned at runtime (POST /v1/refs/reload, or SIGHUP in
	// genasm-serve). Combinable with Ref or RefIndexPath.
	RefDir string
	// MaxResidentBytes bounds the summed on-disk bytes of resident
	// file-backed references; exceeding it evicts idle references in LRU
	// order. 0 = no bound.
	MaxResidentBytes int64
	// ShutdownTimeout bounds graceful shutdown. Defaults to 10s.
	ShutdownTimeout time.Duration
	// RequestTimeout bounds each non-streaming alignment request
	// (align/batch/map) end to end: admission wait, workspace acquire,
	// seeding, filtering and alignment all run under a deadline this far
	// from the handler start (the core DC loop checks it between windows,
	// so even a pathological alignment cannot wedge a worker past it).
	// Expired requests answer 504 with error code "timeout". Defaults to
	// 60s; negative disables.
	RequestTimeout time.Duration
	// StreamIdleTimeout aborts a /v1/map/stream request when no record
	// moves — no input read parsed, no result written — for this long,
	// truncating the stream with the standard `@CO (stream truncated)`
	// trailer or NDJSON error record. Defaults to 2m; negative disables.
	StreamIdleTimeout time.Duration
	// DegradedAfter is how long the admission queue must stay saturated
	// (or the resident-bytes budget overrun) before the server enters
	// degraded mode: healthz answers 503 with a machine-readable reason
	// and all batch-class work is shed at admission until recovery.
	// Defaults to 2s; negative disables degraded mode.
	DegradedAfter time.Duration
	// DegradedRecovery is how long conditions must stay clear before the
	// server leaves degraded mode — the hysteresis that keeps a flapping
	// queue from flapping the health state. Defaults to 5s.
	DegradedRecovery time.Duration
	// RefLoadRetries, RefLoadBackoff, RefBreakerThreshold and
	// RefBreakerCooldown tune the reference registry's load retry and
	// per-reference circuit breaker; zero values take the registry
	// defaults (2 retries, 50ms base backoff, threshold 3, 10s cooldown),
	// negative values disable the mechanism. See registry.Config.
	RefLoadRetries      int
	RefLoadBackoff      time.Duration
	RefBreakerThreshold int
	RefBreakerCooldown  time.Duration
	// Logger receives structured request and error logs. Nil discards
	// them (instrumentation still runs; /metrics is unaffected).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Engine.Capacity()
	}
	if c.InteractiveReserve <= 0 {
		c.InteractiveReserve = max(1, c.QueueDepth/4)
	}
	if c.InteractiveReserve > c.QueueDepth {
		c.InteractiveReserve = c.QueueDepth
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatchJobs <= 0 {
		c.MaxBatchJobs = 1024
	}
	if c.MaxSeqLen <= 0 {
		c.MaxSeqLen = 1 << 20
	}
	if c.MaxMapReads <= 0 {
		c.MaxMapReads = 1024
	}
	if c.MaxRefLen <= 0 {
		c.MaxRefLen = 16 << 20
	}
	if c.MaxStreamBytes <= 0 {
		c.MaxStreamBytes = 1 << 30
	}
	if c.ShutdownTimeout <= 0 {
		c.ShutdownTimeout = 10 * time.Second
	}
	// For the resilience knobs, 0 means "default" and negative means
	// "disabled" — so a zero Config still gets production behavior.
	switch {
	case c.RequestTimeout == 0:
		c.RequestTimeout = 60 * time.Second
	case c.RequestTimeout < 0:
		c.RequestTimeout = 0
	}
	switch {
	case c.StreamIdleTimeout == 0:
		c.StreamIdleTimeout = 2 * time.Minute
	case c.StreamIdleTimeout < 0:
		c.StreamIdleTimeout = 0
	}
	switch {
	case c.DegradedAfter == 0:
		c.DegradedAfter = 2 * time.Second
	case c.DegradedAfter < 0:
		c.DegradedAfter = 0
	}
	if c.DegradedRecovery <= 0 {
		c.DegradedRecovery = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the HTTP alignment service.
type Server struct {
	cfg     Config
	slots   chan struct{}
	hs      *http.Server
	mux     *http.ServeMux
	handler http.Handler
	start   time.Time
	logger  *slog.Logger

	// batchLimit is the queue occupancy at which batch-class requests are
	// shed (QueueDepth − InteractiveReserve).
	batchLimit int

	// m holds every exported instrument; /v1/stats reads from it too.
	m *serverMetrics
	// ridBase distinguishes server incarnations in request IDs; ridSeq
	// numbers requests within one.
	ridBase uint32
	ridSeq  atomic.Uint64
	// closing flips at Shutdown so healthz reports degraded while
	// in-flight requests drain.
	closing atomic.Bool
	// stopStreams closes at the start of Shutdown so in-flight streaming
	// responses truncate cleanly (SAM trailer / NDJSON error record)
	// instead of racing the listener drain.
	stopStreams chan struct{}
	// degrade is the hysteretic degraded-mode state machine: sustained
	// queue saturation or resident-bytes pressure flips it, shedding all
	// batch-class work until conditions stay clear for DegradedRecovery.
	degrade degrader
	// completions counts released admission slots; the drain-rate
	// estimator behind the adaptive 429 Retry-After samples it.
	completions atomic.Uint64
	drain       drainRate

	// mapEngine drives the /v1/map pipeline: read mapping is DNA-only and
	// wants search-capable first windows, independent of how the serving
	// engine is configured.
	mapEngine *genasm.Engine
	// refs is the named-reference registry every mapping request resolves
	// against; the server closes it (unmapping resident indexes) on clean
	// Shutdown.
	refs *registry.Registry
}

// New builds a Server: the metrics registry, the mapping engine, and the
// reference registry seeded from Config.Ref / RefIndexPath / RefDir.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	// Mappers are built per reference, possibly long after boot; refuse a
	// mapping setup they would all reject now.
	if err := (mapper.Config{ErrorRate: cfg.MapErrorRate}).Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		slots:       make(chan struct{}, cfg.QueueDepth),
		mux:         http.NewServeMux(),
		start:       time.Now(),
		logger:      cfg.Logger,
		batchLimit:  cfg.QueueDepth - cfg.InteractiveReserve,
		stopStreams: make(chan struct{}),
		degrade:     degrader{enterAfter: cfg.DegradedAfter, exitAfter: cfg.DegradedRecovery},
	}
	s.ridBase = uint32(s.start.UnixNano())
	s.m = newServerMetrics(s)
	// Both engines report workspace waits and kernel time into the same
	// histograms — the engine-level half of the stage breakdown.
	cfg.Engine.SetAlignTrace(s.m.alignTrace())
	// The mapping engine uses the paper's read-alignment setup (search in
	// the first window) and is sized like the serving engine.
	me, err := genasm.NewEngine(
		genasm.WithSearchStart(true),
		genasm.WithMaxWorkspaces(cfg.Engine.Capacity()),
		genasm.WithAlignTrace(s.m.alignTrace()),
	)
	if err != nil {
		return nil, err
	}
	s.mapEngine = me
	refs, err := registry.New(registry.Config{
		NewMapper: func(ri *genasm.RefIndex, name string) (*genasm.Mapper, error) {
			return s.mapEngine.NewMapperFromIndex(ri, genasm.MapperConfig{
				ErrorRate: cfg.MapErrorRate,
				RefName:   name,
				Trace:     s.m.mapTraceFor(name),
			})
		},
		MaxResidentBytes: cfg.MaxResidentBytes,
		Logger:           cfg.Logger,
		OnLoad:           s.m.refLoaded,
		OnEvict:          s.m.refEvicted,
		OnLoadError:      func(name string, err error) { s.m.refLoadErrors.Inc() },
		LoadRetries:      cfg.RefLoadRetries,
		LoadBackoff:      cfg.RefLoadBackoff,
		BreakerThreshold: cfg.RefBreakerThreshold,
		BreakerCooldown:  cfg.RefBreakerCooldown,
	})
	if err != nil {
		return nil, err
	}
	s.refs = refs
	if err := s.seedRegistry(); err != nil {
		return nil, err
	}
	s.mux.HandleFunc("POST /v1/align", s.handleAlign)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/map", s.handleMap)
	s.mux.HandleFunc("POST /v1/map/stream", s.handleMapStream)
	s.mux.HandleFunc("GET /v1/refs", s.handleRefsList)
	s.mux.HandleFunc("POST /v1/refs/reload", s.handleRefsReload)
	s.mux.HandleFunc("POST /v1/refs/{name}/load", s.handleRefLoad)
	s.mux.HandleFunc("DELETE /v1/refs/{name}", s.handleRefDelete)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.Handle("GET /metrics", s.m.reg.Handler())
	s.handler = s.instrument(s.mux)
	s.hs = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s, nil
}

// seedRegistry populates the reference registry from the boot
// configuration. Config errors — a corrupt RefIndexPath, an unreadable
// RefDir, conflicting options — fail the boot rather than surfacing on
// first request.
func (s *Server) seedRegistry() error {
	cfg := s.cfg
	switch {
	case cfg.RefIndexPath != "" && len(cfg.Ref) > 0:
		return errors.New("server: Ref and RefIndexPath are mutually exclusive")
	case cfg.RefIndexPath != "":
		if cfg.MapSeedK != 0 {
			return errors.New("server: MapSeedK conflicts with RefIndexPath (the seed length is baked into the index file)")
		}
		// Validate the file (and learn its recorded name) eagerly, then
		// hand it to the registry as a regular file-backed — and therefore
		// evictable — reference.
		ri, err := genasm.LoadRefIndex(cfg.RefIndexPath)
		if err != nil {
			return fmt.Errorf("server: loading reference index: %w", err)
		}
		name := cfg.RefName
		if name == "" {
			name = ri.RefName()
		}
		ri.Close()
		if err := s.refs.AddFile(name, cfg.RefIndexPath); err != nil {
			return err
		}
		if err := s.refs.Load(name); err != nil {
			return fmt.Errorf("server: reference index %s: %w", cfg.RefIndexPath, err)
		}
	case len(cfg.Ref) > 0:
		name := cfg.RefName
		if name == "" {
			name = "ref"
		}
		ri, err := s.mapEngine.BuildRefIndex(cfg.Ref, genasm.RefIndexConfig{
			SeedParams: genasm.SeedParams{SeedK: cfg.MapSeedK},
			RefName:    name,
		})
		if err != nil {
			return fmt.Errorf("server: indexing reference: %w", err)
		}
		if err := s.refs.Register(name, ri); err != nil {
			ri.Close()
			return fmt.Errorf("server: registering reference: %w", err)
		}
	}
	if cfg.RefDir != "" {
		if _, _, err := s.refs.Reload(cfg.RefDir); err != nil {
			return fmt.Errorf("server: scanning reference dir: %w", err)
		}
	}
	return nil
}

// newMapper indexes a request-supplied reference (letters) on the mapping
// engine; the returned Mapper is safe for concurrent use and carries the
// server's metrics-backed pipeline trace under the "inline" reference
// label.
func (s *Server) newMapper(ref []byte, refName string) (*genasm.Mapper, error) {
	return s.mapEngine.NewMapper(ref, genasm.MapperConfig{
		SeedParams: genasm.SeedParams{SeedK: s.cfg.MapSeedK},
		ErrorRate:  s.cfg.MapErrorRate,
		RefName:    refName,
		Trace:      s.m.mapTraceFor("inline"),
	})
}

// Handler returns the service's HTTP handler, observability middleware
// included (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics returns the server's metric registry, for scraping or for
// registering additional instruments before serving starts.
func (s *Server) Metrics() *metrics.Registry { return s.m.reg }

// Refs returns the server's reference registry (for embedding and tests).
func (s *Server) Refs() *registry.Registry { return s.refs }

// ReloadRefs re-scans Config.RefDir, registering new index files and
// dropping references whose file vanished. It errors when no RefDir is
// configured. The SIGHUP handler of genasm-serve and POST /v1/refs/reload
// both land here.
func (s *Server) ReloadRefs() (added, removed []string, err error) {
	if s.cfg.RefDir == "" {
		return nil, nil, errors.New("server: no reference directory configured (-ref-dir)")
	}
	return s.refs.Reload(s.cfg.RefDir)
}

// OpsHandler returns the operations surface meant for a private listener:
// GET /metrics plus the net/http/pprof handlers under /debug/pprof/.
func (s *Server) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", s.m.reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve accepts connections on l until Shutdown; it returns
// http.ErrServerClosed after a graceful shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error { return s.hs.Serve(l) }

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown drains in-flight requests and stops the server, bounded by
// Config.ShutdownTimeout. Healthz reports degraded for the duration. After
// a clean drain the reference registry is closed, releasing every resident
// index's file mapping; on a timed-out drain it is deliberately leaked,
// since requests may still be touching the mapped pages.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closing.CompareAndSwap(false, true) {
		// Tell in-flight streams to truncate (trailer / error record) so
		// they release their admission slots inside the drain window.
		close(s.stopStreams)
	}
	s.logger.LogAttrs(ctx, slog.LevelInfo, "shutting down",
		slog.Duration("timeout", s.cfg.ShutdownTimeout))
	ctx, cancel := context.WithTimeout(ctx, s.cfg.ShutdownTimeout)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if err == nil {
		if cerr := s.refs.Close(); cerr != nil {
			err = fmt.Errorf("server: closing reference registry: %w", cerr)
		}
	}
	return err
}

// admission --------------------------------------------------------------

// Priority classes of the admission queue. Batch is shed first: it is
// rejected while interactive traffic still has InteractiveReserve slots of
// headroom.
const (
	classInteractive = "interactive"
	classBatch       = "batch"
)

// requestClass reads the X-Genasm-Priority header (default interactive),
// answering 400 on an unknown class.
func (s *Server) requestClass(w http.ResponseWriter, r *http.Request) (string, bool) {
	switch h := r.Header.Get("X-Genasm-Priority"); h {
	case "", classInteractive:
		return classInteractive, true
	case classBatch:
		return classBatch, true
	default:
		s.httpError(w, r, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("unknown priority class %q (want %q or %q)", h, classInteractive, classBatch))
		return "", false
	}
}

// acquireSlot admits the request to alignment work or rejects it with 429.
// The bounded slot channel is the backpressure mechanism: engine capacity
// bounds concurrent alignments, QueueDepth bounds how many requests may
// wait for a workspace, and everything beyond that is told to back off.
// Batch-class requests are shed earlier, at batchLimit, so the reserve
// stays available to interactive traffic. (The occupancy read is a benign
// race: load shedding needs a threshold, not an exact count.)
func (s *Server) acquireSlot(w http.ResponseWriter, r *http.Request) bool {
	class, ok := s.requestClass(w, r)
	if !ok {
		return false
	}
	// Every admission attempt advances the degraded-mode state machine, so
	// the server can enter (and recover from) degraded mode under pure
	// interactive load too.
	degraded, dreason := s.observeDegraded()
	if class == classBatch {
		if degraded {
			s.rejectSlot(w, r, class,
				fmt.Sprintf("server degraded (%s): batch work shed until recovery", dreason))
			return false
		}
		if len(s.slots) >= s.batchLimit {
			s.rejectSlot(w, r, class, "server overloaded: admission queue full")
			return false
		}
	}
	select {
	case s.slots <- struct{}{}:
		s.m.admitted.Inc()
		s.m.admission.With(class, "admitted").Inc()
		s.m.slotInFlight.Inc()
		return true
	default:
		s.rejectSlot(w, r, class, "server overloaded: admission queue full")
		return false
	}
}

func (s *Server) rejectSlot(w http.ResponseWriter, r *http.Request, class, msg string) {
	s.m.rejected.Inc()
	s.m.admission.With(class, "rejected").Inc()
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	s.httpError(w, r, http.StatusTooManyRequests, "overload", msg)
}

func (s *Server) releaseSlot() {
	s.m.slotInFlight.Dec()
	s.completions.Add(1)
	<-s.slots
}

// request/response types -------------------------------------------------

// AlignRequest is the body of POST /v1/align and one job of /v1/batch.
type AlignRequest struct {
	// Text is the reference region, Query the read — letters of the
	// engine's alphabet.
	Text  string `json:"text"`
	Query string `json:"query"`
	// Global selects end-to-end alignment.
	Global bool `json:"global,omitempty"`
}

// AlignResponse is one alignment result.
type AlignResponse struct {
	CIGAR        string `json:"cigar"`
	ClassicCIGAR string `json:"classic_cigar"`
	Distance     int    `json:"distance"`
	TextStart    int    `json:"text_start"`
	TextEnd      int    `json:"text_end"`
	Matches      int    `json:"matches"`
}

func alignResponse(aln genasm.Alignment) AlignResponse {
	return AlignResponse{
		CIGAR:        aln.CIGAR,
		ClassicCIGAR: aln.ClassicCIGAR,
		Distance:     aln.Distance,
		TextStart:    aln.TextStart,
		TextEnd:      aln.TextEnd,
		Matches:      aln.Matches,
	}
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Jobs []AlignRequest `json:"jobs"`
}

// BatchItem pairs one job's result with its error; exactly one of the two
// fields is set.
type BatchItem struct {
	Alignment *AlignResponse `json:"alignment,omitempty"`
	Error     string         `json:"error,omitempty"`
}

// BatchResponse is the body of a /v1/batch response, in job order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// MapRead is one read of a /v1/map request.
type MapRead struct {
	Name string `json:"name"`
	Seq  string `json:"seq"`
}

// MapRequest is the body of POST /v1/map. Ref names a registered
// reference (it also accepts the ?ref= query parameter); Reference
// supplies an inline one, indexed per request. With neither, the sole
// registered reference serves the request.
type MapRequest struct {
	Ref       string    `json:"ref,omitempty"`
	RefName   string    `json:"ref_name,omitempty"`
	Reference string    `json:"reference,omitempty"`
	Reads     []MapRead `json:"reads"`
}

// handlers ---------------------------------------------------------------

func (s *Server) handleAlign(w http.ResponseWriter, r *http.Request) {
	var req AlignRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.checkSeq(w, r, "text", req.Text) || !s.checkSeq(w, r, "query", req.Query) {
		return
	}
	if !s.acquireSlot(w, r) {
		return
	}
	defer s.releaseSlot()
	ctx, cancel := s.requestContext(r)
	defer cancel()
	aln, err := s.align(ctx, req)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.m.alignments.Inc()
	writeJSON(w, http.StatusOK, alignResponse(aln))
}

func (s *Server) align(ctx context.Context, req AlignRequest) (genasm.Alignment, error) {
	if req.Global {
		return s.cfg.Engine.AlignGlobal(ctx, []byte(req.Text), []byte(req.Query))
	}
	return s.cfg.Engine.Align(ctx, []byte(req.Text), []byte(req.Query))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		s.httpError(w, r, http.StatusBadRequest, "bad_request", "batch: no jobs")
		return
	}
	if len(req.Jobs) > s.cfg.MaxBatchJobs {
		s.httpError(w, r, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch: %d jobs exceeds limit %d", len(req.Jobs), s.cfg.MaxBatchJobs))
		return
	}
	for i, j := range req.Jobs {
		if !s.checkSeq(w, r, fmt.Sprintf("job %d text", i), j.Text) ||
			!s.checkSeq(w, r, fmt.Sprintf("job %d query", i), j.Query) {
			return
		}
	}
	if !s.acquireSlot(w, r) {
		return
	}
	defer s.releaseSlot()

	// The engine streams the batch through its workspace pool with per-job
	// error reporting, preserving request order.
	jobs := make([]genasm.BatchJob, len(req.Jobs))
	for i, j := range req.Jobs {
		jobs[i] = genasm.BatchJob{Text: []byte(j.Text), Query: []byte(j.Query), Global: j.Global}
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	results, err := s.cfg.Engine.AlignBatch(ctx, jobs)
	if err != nil {
		// The client went away mid-batch (or the deadline fired).
		s.fail(w, r, err)
		return
	}
	items := make([]BatchItem, len(results))
	for i, res := range results {
		if res.Err != nil {
			// A quarantine inside one job still counts on /metrics even
			// though the batch as a whole succeeds.
			var pe *genasm.PanicError
			if errors.As(res.Err, &pe) {
				s.m.recordPanic(r.Context(), s.logger, pe)
			}
			items[i] = BatchItem{Error: res.Err.Error()}
			continue
		}
		a := alignResponse(res.Alignment)
		items[i] = BatchItem{Alignment: &a}
		s.m.alignments.Inc()
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: items})
}

// acquireRef resolves and pins the reference for a mapping request: name
// when given (body field or ?ref=), else the sole registered reference.
// On failure it writes the error response — 404 for an unknown name — and
// returns nil; otherwise the caller must Release the handle when the
// request completes (the pin is what keeps eviction from unmapping the
// index mid-request).
func (s *Server) acquireRef(w http.ResponseWriter, r *http.Request, name string) *registry.Handle {
	if name == "" {
		var ok bool
		if name, ok = s.refs.Sole(); !ok {
			if len(s.refs.Names()) == 0 {
				s.httpError(w, r, http.StatusBadRequest, "bad_request",
					"no reference named and none registered (start the server with -ref, -ref-index or -ref-dir)")
			} else {
				s.httpError(w, r, http.StatusBadRequest, "bad_request",
					`multiple references registered; name one with "ref"`)
			}
			return nil
		}
	}
	h, err := s.refs.Acquire(name)
	if err != nil {
		switch {
		case errors.Is(err, registry.ErrUnknownRef):
			s.httpError(w, r, http.StatusNotFound, "not_found",
				fmt.Sprintf("unknown reference %q", name))
		case errors.Is(err, registry.ErrClosed):
			s.httpError(w, r, http.StatusServiceUnavailable, "overload", "server shutting down")
		case errors.Is(err, registry.ErrBreakerOpen):
			// Fail fast while the breaker cools down: 503 tells clients to
			// retry elsewhere (or later), without burning a load attempt.
			s.httpError(w, r, http.StatusServiceUnavailable, "ref_load",
				fmt.Sprintf("reference %q unavailable: %v", name, err))
		default:
			s.httpError(w, r, http.StatusInternalServerError, "ref_load",
				fmt.Sprintf("loading reference %q: %v", name, err))
		}
		return nil
	}
	return h
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	var req MapRequest
	if !s.decode(w, r, &req) {
		return
	}
	refName := r.URL.Query().Get("ref")
	if req.Ref != "" {
		refName = req.Ref
	}
	if refName != "" && req.Reference != "" {
		s.httpError(w, r, http.StatusBadRequest, "bad_request",
			`map: "ref" (a registered reference) and "reference" (inline) are mutually exclusive`)
		return
	}
	if len(req.Reads) == 0 {
		s.httpError(w, r, http.StatusBadRequest, "bad_request", "map: no reads")
		return
	}
	if len(req.Reads) > s.cfg.MaxMapReads {
		s.httpError(w, r, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("map: %d reads exceeds limit %d", len(req.Reads), s.cfg.MaxMapReads))
		return
	}
	if len(req.Reference) > s.cfg.MaxRefLen {
		s.httpError(w, r, http.StatusBadRequest, "too_large",
			fmt.Sprintf("map: reference length %d exceeds limit %d", len(req.Reference), s.cfg.MaxRefLen))
		return
	}
	for i, rd := range req.Reads {
		if !s.checkSeq(w, r, fmt.Sprintf("map: read %d", i), rd.Seq) {
			return
		}
	}
	if !s.acquireSlot(w, r) {
		return
	}
	defer s.releaseSlot()

	var m *genasm.Mapper
	if req.Reference != "" {
		var err error
		m, err = s.newMapper([]byte(req.Reference), req.RefName)
		if err != nil {
			s.httpError(w, r, http.StatusBadRequest, "input", "map: "+err.Error())
			return
		}
	} else {
		h := s.acquireRef(w, r, refName)
		if h == nil {
			return
		}
		defer h.Release()
		m = h.Mapper()
	}

	reads := make([]genasm.Read, len(req.Reads))
	for i, rd := range req.Reads {
		name := rd.Name
		if name == "" {
			name = fmt.Sprintf("read%d", i)
		}
		reads[i] = genasm.Read{Name: name, Seq: []byte(rd.Seq)}
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	mappings, err := m.MapReads(ctx, reads)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.m.alignments.Add(uint64(len(mappings)))

	var buf bytes.Buffer
	if err := m.WriteSAM(&buf, mappings); err != nil {
		s.httpError(w, r, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/x-sam; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// reference registry endpoints -------------------------------------------

// RefJSON is one reference row of GET /v1/refs; the index fields are
// present only while the reference is resident.
type RefJSON struct {
	Name   string `json:"name"`
	Path   string `json:"path,omitempty"`
	Static bool   `json:"static,omitempty"`
	// State is "loaded", "cold", "loading" or "error".
	State string `json:"state"`
	Pins  int    `json:"pins"`
	Error string `json:"error,omitempty"`
	// Breaker is the load circuit-breaker state of a file-backed
	// reference: "closed", "open" or "half-open" (empty for static
	// references or when the breaker is disabled). Fails counts
	// consecutive failed load attempts.
	Breaker string `json:"breaker,omitempty"`
	Fails   int    `json:"breaker_fails,omitempty"`

	Backend     string  `json:"backend,omitempty"`
	Source      string  `json:"source,omitempty"`
	RefLen      int     `json:"ref_len,omitempty"`
	Seeds       int     `json:"seeds,omitempty"`
	Bytes       int64   `json:"bytes,omitempty"`
	FileBytes   int64   `json:"file_bytes,omitempty"`
	LoadSeconds float64 `json:"load_seconds,omitempty"`
}

func refJSON(info registry.RefInfo) RefJSON {
	out := RefJSON{
		Name:    info.Name,
		Path:    info.Path,
		Static:  info.Static,
		State:   string(info.State),
		Pins:    info.Pins,
		Error:   info.Err,
		Breaker: info.Breaker,
		Fails:   info.Fails,
	}
	if info.State == registry.StateLoaded {
		st := info.Stats
		out.Backend = st.Backend
		out.Source = st.Source
		out.RefLen = st.RefLen
		out.Seeds = st.Seeds
		out.Bytes = st.Bytes
		out.FileBytes = st.FileBytes
		out.LoadSeconds = st.LoadTime.Seconds()
	}
	return out
}

// RefsResponse is the body of GET /v1/refs.
type RefsResponse struct {
	Refs  []RefJSON      `json:"refs"`
	Stats registry.Stats `json:"stats"`
}

func (s *Server) handleRefsList(w http.ResponseWriter, r *http.Request) {
	infos := s.refs.List()
	out := RefsResponse{Refs: make([]RefJSON, len(infos)), Stats: s.refs.Stats()}
	for i, info := range infos {
		out.Refs[i] = refJSON(info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRefLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.refs.Load(name); err != nil {
		switch {
		case errors.Is(err, registry.ErrUnknownRef):
			s.httpError(w, r, http.StatusNotFound, "not_found",
				fmt.Sprintf("unknown reference %q", name))
		case errors.Is(err, registry.ErrBreakerOpen):
			s.httpError(w, r, http.StatusServiceUnavailable, "ref_load",
				fmt.Sprintf("reference %q unavailable: %v", name, err))
		default:
			s.httpError(w, r, http.StatusInternalServerError, "ref_load",
				fmt.Sprintf("loading reference %q: %v", name, err))
		}
		return
	}
	info, _ := s.refs.Get(name)
	writeJSON(w, http.StatusOK, refJSON(info))
}

func (s *Server) handleRefDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.refs.Remove(name); err != nil {
		s.httpError(w, r, http.StatusNotFound, "not_found",
			fmt.Sprintf("unknown reference %q", name))
		return
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "reference removed",
		slog.String("rid", requestID(r.Context())),
		slog.String("ref", name))
	writeJSON(w, http.StatusOK, map[string]string{"removed": name})
}

func (s *Server) handleRefsReload(w http.ResponseWriter, r *http.Request) {
	added, removed, err := s.ReloadRefs()
	if err != nil {
		if s.cfg.RefDir == "" {
			s.httpError(w, r, http.StatusBadRequest, "bad_request", err.Error())
		} else {
			s.httpError(w, r, http.StatusInternalServerError, "internal", err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string][]string{
		"added":   emptyNotNil(added),
		"removed": emptyNotNil(removed),
	})
}

// emptyNotNil keeps JSON arrays [] instead of null for empty slices.
func emptyNotNil(s []string) []string {
	if s == nil {
		return []string{}
	}
	return s
}

// handleHealthz reports liveness. The server is "degraded" — and answers
// 503 so load balancers rotate it out — while shutting down, while the
// admission queue is saturated (new alignment work would be rejected), or
// while the hysteretic degraded mode is active. The reason field is
// machine-readable: "shutting_down", "queue_saturated" or
// "resident_bytes_pressure".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	var reason string
	degraded, dreason := s.observeDegraded()
	switch {
	case s.closing.Load():
		status, code, reason = "degraded", http.StatusServiceUnavailable, "shutting_down"
	case degraded:
		status, code, reason = "degraded", http.StatusServiceUnavailable, dreason
	case len(s.slots) >= s.cfg.QueueDepth:
		// Instantaneous saturation: not yet sustained enough for degraded
		// mode (batch shedding), but new work is already being rejected.
		status, code, reason = "degraded", http.StatusServiceUnavailable, "queue_saturated"
	}
	if reason != "" {
		s.logger.LogAttrs(r.Context(), slog.LevelWarn, "healthz degraded",
			slog.String("rid", requestID(r.Context())),
			slog.String("reason", reason))
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"reason":         reason,
		"degraded_mode":  degraded,
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Pool    genasm.PoolStats `json:"pool"`
	Server  ServerStats      `json:"server"`
	Refs    registry.Stats   `json:"refs"`
	Latency LatencyStats     `json:"latency"`
}

// ServerStats are the server-side counters — the JSON rendering of the
// same registry instruments /metrics exposes, so the two views cannot
// drift. InFlightRequests and QueueUsed make streaming load observable: a
// long-lived /v1/map/stream request holds one admission slot for its whole
// duration, so QueueUsed climbing toward QueueDepth warns of saturation
// before 429s start.
type ServerStats struct {
	Requests         uint64 `json:"requests"`
	Alignments       uint64 `json:"alignments"`
	Streams          uint64 `json:"streams"`
	Rejected         uint64 `json:"rejected"`
	Errored          uint64 `json:"errored"`
	InFlightRequests int64  `json:"in_flight_requests"`
	// QueueUsed is the number of admission slots currently held
	// (in-flight plus queued work); QueueDepth is the configured cap.
	// BatchLimit is the occupancy at which batch-class requests are shed.
	QueueUsed  int `json:"queue_used"`
	QueueDepth int `json:"queue_depth"`
	BatchLimit int `json:"batch_limit"`
	// Degraded reports the hysteretic degraded-mode state (all batch work
	// shed); DegradedReason is its machine-readable cause while active.
	// Panics counts recovered alignment panics (quarantined workspaces).
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	Panics         uint64 `json:"panics"`
}

// Stats snapshots the server, engine and reference-registry counters from
// the metric registry.
func (s *Server) Stats() StatsResponse {
	return StatsResponse{
		Pool: s.cfg.Engine.Stats(),
		Server: func() ServerStats {
			degraded, dreason := s.degrade.state()
			return ServerStats{
				Requests:         s.m.admitted.Value(),
				Alignments:       s.m.alignments.Value(),
				Streams:          s.m.streamsStarted.Value(),
				Rejected:         s.m.rejected.Value(),
				Errored:          s.m.errors.Sum(),
				InFlightRequests: s.m.slotInFlight.Value(),
				QueueUsed:        len(s.slots),
				QueueDepth:       s.cfg.QueueDepth,
				BatchLimit:       s.batchLimit,
				Degraded:         degraded,
				DegradedReason:   dreason,
				Panics:           s.m.panics.Sum(),
			}
		}(),
		Refs:    s.refs.Stats(),
		Latency: s.m.latencyStats(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// helpers ----------------------------------------------------------------

// decode reads the size-limited JSON body into v, answering 4xx on
// malformed or oversized input.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.httpError(w, r, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return false
		}
		s.httpError(w, r, http.StatusBadRequest, "bad_request", "malformed request: "+err.Error())
		return false
	}
	return true
}

func (s *Server) checkSeq(w http.ResponseWriter, r *http.Request, field, seq string) bool {
	if seq == "" {
		s.httpError(w, r, http.StatusBadRequest, "bad_request", field+": empty sequence")
		return false
	}
	if len(seq) > s.cfg.MaxSeqLen {
		s.httpError(w, r, http.StatusBadRequest, "too_large",
			fmt.Sprintf("%s: length %d exceeds limit %d", field, len(seq), s.cfg.MaxSeqLen))
		return false
	}
	return true
}

// fail reports an alignment error. Most errors on that path derive from
// the client's input (encode failures, empty patterns, window budget), so
// they answer 400 — but a recovered panic answers 500 "panic", the
// server's own deadline answers 504 "timeout", and client disconnects get
// nothing (there is no one left to read it).
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	var pe *genasm.PanicError
	switch {
	case errors.As(err, &pe):
		s.m.recordPanic(r.Context(), s.logger, pe)
		s.httpError(w, r, http.StatusInternalServerError, "panic",
			fmt.Sprintf("internal panic during %s (recovered; workspace quarantined)", pe.Site))
	case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil:
		// The server's RequestTimeout fired while the client was still
		// connected: a genuine timeout, not a disconnect.
		s.httpError(w, r, http.StatusGatewayTimeout, "timeout",
			fmt.Sprintf("request exceeded the %s server deadline", s.cfg.RequestTimeout))
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The client went away; nothing useful to write, but the failure
		// still counts and logs.
		s.m.errors.With("canceled").Inc()
		s.logger.LogAttrs(r.Context(), slog.LevelWarn, "request canceled",
			slog.String("rid", requestID(r.Context())),
			slog.String("path", r.URL.Path),
			slog.String("error", err.Error()))
	default:
		s.httpError(w, r, http.StatusBadRequest, "input", err.Error())
	}
}

// httpError is the one funnel for error responses: it counts the failure
// in genasm_http_errors_total{kind}, logs it with the request ID (warn for
// client errors, error for 5xx) and writes the JSON error envelope, whose
// code field is the same kind label.
func (s *Server) httpError(w http.ResponseWriter, r *http.Request, status int, kind, msg string) {
	s.m.errors.With(kind).Inc()
	level := slog.LevelWarn
	if status >= 500 {
		level = slog.LevelError
	}
	s.logger.LogAttrs(r.Context(), level, "request failed",
		slog.String("rid", requestID(r.Context())),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.String("kind", kind),
		slog.String("error", msg))
	writeError(w, status, kind, msg, requestID(r.Context()))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// ErrorBody is the JSON envelope of every non-2xx response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable error code (the
// genasm_http_errors_total{kind} label), the human-readable message, and
// the request ID to quote when correlating with server logs.
type ErrorDetail struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id"`
}

func writeError(w http.ResponseWriter, status int, code, msg, rid string) {
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: msg, RequestID: rid}})
}
