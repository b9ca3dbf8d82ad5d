// Command genasm-serve runs the GenASM alignment service: an HTTP JSON
// API over one shared genasm.Engine (a capacity-bounded pool of reusable
// GenASM workspaces).
//
//	genasm-serve -addr :8080 -workspaces 16 -queue 64
//	genasm-serve -addr :8080 -ref ref.fasta   # preload /v1/map + /v1/map/stream reference
//	genasm-serve -addr :8080 -ref-index ref.gidx   # mmap a prebuilt index (genasm index build)
//	genasm-serve -addr :8080 -ref-dir /data/refs -max-resident-bytes 8000000000
//	genasm-serve -addr :8080 -ops-addr 127.0.0.1:8081 -log json
//	genasm-serve -addr :8080 -request-timeout 30s -stream-idle-timeout 1m
//
// Endpoints:
//
//	POST   /v1/align        {"text":"ACGT...","query":"ACG...","global":false}
//	POST   /v1/batch        {"jobs":[{...},{...}]}
//	POST   /v1/map[?ref=n]  {"ref":"chr1","reads":[...]} or an inline
//	                        {"reference":"ACGT...","reads":[...]}
//	POST   /v1/map/stream[?ref=n] FASTA/FASTQ/NDJSON reads in the body;
//	                        NDJSON (or SAM with "Accept: text/x-sam")
//	                        streamed back, flushed per record
//	GET    /v1/refs         reference registry listing
//	POST   /v1/refs/{n}/load force a reference resident
//	DELETE /v1/refs/{n}     remove a reference
//	POST   /v1/refs/reload  re-scan -ref-dir (SIGHUP does the same)
//	GET    /v1/healthz      503 "degraded" when saturated or shutting down
//	GET    /v1/stats        JSON counters (same registry as /metrics)
//	GET    /metrics         Prometheus text exposition
//
// With -ref-dir every *.gasmidx/*.gidx file in the directory is served as
// a named reference (basename sans extension), mmap-loaded lazily and
// evicted LRU under the -max-resident-bytes budget; SIGHUP re-scans the
// directory without a restart. Requests pick a reference with the "ref"
// field/query parameter; batch traffic can be marked for early shedding
// with "X-Genasm-Priority: batch".
//
// Every alignment-bearing request runs under a -request-timeout deadline
// (answered 504 with code "timeout" when exceeded); streams that move no
// record for -stream-idle-timeout are truncated in-band. -faults (or the
// GENASM_FAULTS environment variable) enables the fault-injection harness
// for chaos testing — never set it in production.
//
// With -ops-addr a second listener serves the private operations surface:
// GET /metrics plus net/http/pprof under /debug/pprof/ — keep it off the
// public network. Structured logs (request failures, stream truncations,
// lifecycle) go to stderr; -log picks text, json or off, -log-level the
// threshold (debug also logs every request).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"genasm"
	"genasm/internal/faults"
	"genasm/internal/server"
	"genasm/seqio"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatalf("genasm-serve: %v", err)
	}
}

// options is the parsed flag set.
type options struct {
	addr        string
	opsAddr     string
	workspaces  int
	queue       int
	maxBody     int64
	maxBatch    int
	maxSeq      int
	maxStream   int64
	window      int
	overlap     int
	alphabet    string
	searchStart bool
	gapsFirst   bool
	refPath     string
	refIndex    string
	refDir      string
	maxResident int64
	refName     string
	seedK       int
	errorRate   float64
	logFormat   string
	logLevel    string
	reqTimeout  time.Duration
	idleTimeout time.Duration
	faultSpec   string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("genasm-serve", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.opsAddr, "ops-addr", "", "private operations listener (/metrics + /debug/pprof); empty disables")
	fs.StringVar(&o.logFormat, "log", "text", "structured log format: text, json or off")
	fs.StringVar(&o.logLevel, "log-level", "info", "log threshold: debug, info, warn or error (debug logs every request)")
	fs.IntVar(&o.workspaces, "workspaces", 0, "max pooled workspaces, bounding alignment and mapping together (0 = 2x GOMAXPROCS)")
	fs.IntVar(&o.queue, "queue", 0, "admission queue depth (0 = 4x workspaces)")
	fs.Int64Var(&o.maxBody, "max-body", 0, "max request body bytes (0 = 8 MiB)")
	fs.IntVar(&o.maxBatch, "max-batch", 0, "max jobs per batch request (0 = 1024)")
	fs.IntVar(&o.maxSeq, "max-seq", 0, "max sequence length (0 = 1 MiB)")
	fs.Int64Var(&o.maxStream, "max-stream", 0, "max /v1/map/stream request body bytes (0 = 1 GiB)")
	fs.IntVar(&o.window, "window", 0, "alignment window size W, mapping included (0 = 64)")
	fs.IntVar(&o.overlap, "overlap", 0, "window overlap O, mapping included (0 = 24)")
	fs.StringVar(&o.alphabet, "alphabet", "DNA", "alphabet: DNA, RNA, protein or bytes (only DNA can map: -ref, -ref-index, -ref-dir and /v1/map need it)")
	fs.BoolVar(&o.searchStart, "search-start", false, "let /v1/align and /v1/batch semi-global alignments start at the best position in the first window (mapping always does)")
	fs.BoolVar(&o.gapsFirst, "gaps-first", false, "prefer gaps over substitutions during traceback, mapping included")
	fs.StringVar(&o.refPath, "ref", "", "optional FASTA reference to preload for /v1/map")
	fs.StringVar(&o.refIndex, "ref-index", "", "prebuilt reference index file (genasm index build) to preload for /v1/map; mutually exclusive with -ref")
	fs.StringVar(&o.refDir, "ref-dir", "", "directory of *.gasmidx/*.gidx files served as named references (lazy mmap-load; SIGHUP re-scans)")
	fs.Int64Var(&o.maxResident, "max-resident-bytes", 0, "resident-bytes budget for file-backed references; idle ones are evicted LRU (0 = unbounded)")
	fs.StringVar(&o.refName, "ref-name", "", "reference name override for /v1/map SAM output")
	fs.IntVar(&o.seedK, "seed-k", 0, "mapper seed length (0 = 15)")
	fs.Float64Var(&o.errorRate, "error-rate", 0, "mapper expected error rate (0 = 0.10)")
	fs.DurationVar(&o.reqTimeout, "request-timeout", 0, "per-request deadline for align/batch/map (0 = 60s, negative disables)")
	fs.DurationVar(&o.idleTimeout, "stream-idle-timeout", 0, "/v1/map/stream is truncated when no record moves for this long (0 = 2m, negative disables)")
	fs.StringVar(&o.faultSpec, "faults", os.Getenv("GENASM_FAULTS"),
		"fault-injection spec for chaos testing (site:mode[=param][@prob][#max], comma-separated; default $GENASM_FAULTS; empty disables)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, nil
}

// buildLogger wires -log/-log-level into a slog.Logger on stderr; "off"
// (or an unknown format) returns nil so the server discards logs.
func buildLogger(o options) (*slog.Logger, error) {
	var level slog.Level
	switch strings.ToLower(o.logLevel) {
	case "debug":
		level = slog.LevelDebug
	case "", "info":
		level = slog.LevelInfo
	case "warn":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", o.logLevel)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(o.logFormat) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "off":
		return nil, nil
	}
	return nil, fmt.Errorf("unknown -log format %q (want text, json or off)", o.logFormat)
}

// buildServer wires the flags into a ready Server.
func buildServer(o options) (*server.Server, error) {
	alpha, err := genasm.ParseAlphabet(o.alphabet)
	if err != nil {
		return nil, err
	}
	logger, err := buildLogger(o)
	if err != nil {
		return nil, err
	}
	engine, err := genasm.NewEngine(
		genasm.WithConfig(genasm.Config{
			Alphabet:                alpha,
			WindowSize:              o.window,
			Overlap:                 o.overlap,
			SearchStart:             o.searchStart,
			GapsBeforeSubstitutions: o.gapsFirst,
		}),
		genasm.WithMaxWorkspaces(o.workspaces),
	)
	if err != nil {
		return nil, err
	}
	cfg := server.Config{
		Engine:            engine,
		QueueDepth:        o.queue,
		MaxBodyBytes:      o.maxBody,
		MaxBatchJobs:      o.maxBatch,
		MaxSeqLen:         o.maxSeq,
		MaxStreamBytes:    o.maxStream,
		MapSeedK:          o.seedK,
		MapErrorRate:      o.errorRate,
		RefDir:            o.refDir,
		MaxResidentBytes:  o.maxResident,
		RequestTimeout:    o.reqTimeout,
		StreamIdleTimeout: o.idleTimeout,
		Logger:            logger,
	}
	if o.refIndex != "" {
		if o.refPath != "" {
			return nil, fmt.Errorf("-ref and -ref-index are mutually exclusive")
		}
		cfg.RefIndexPath = o.refIndex
		cfg.RefName = o.refName
	}
	if o.refPath != "" {
		f, err := seqio.Open(o.refPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		for rec, err := range f.Records() {
			if err != nil {
				return nil, fmt.Errorf("%s: %w", o.refPath, err)
			}
			cfg.RefName, cfg.Ref = rec.Name, rec.Seq
			break
		}
		if len(cfg.Ref) == 0 {
			return nil, fmt.Errorf("%s: no sequence records", o.refPath)
		}
		if o.refName != "" {
			cfg.RefName = o.refName
		}
	}
	return server.New(cfg)
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.faultSpec != "" {
		if err := faults.Enable(o.faultSpec); err != nil {
			return err
		}
		log.Printf("genasm-serve: FAULT INJECTION ACTIVE: %s", o.faultSpec)
	}
	s, err := buildServer(o)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	log.Printf("genasm-serve: listening on %s", l.Addr())

	errc := make(chan error, 1)
	go func() { errc <- s.Serve(l) }()

	// The operations surface (metrics + pprof) gets its own listener so it
	// can bind a private interface and stay invisible to API clients.
	var ops *http.Server
	opsErrc := make(chan error, 1)
	if o.opsAddr != "" {
		ol, err := net.Listen("tcp", o.opsAddr)
		if err != nil {
			return fmt.Errorf("ops listener: %w", err)
		}
		log.Printf("genasm-serve: ops (metrics, pprof) on %s", ol.Addr())
		ops = &http.Server{Handler: s.OpsHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() { opsErrc <- ops.Serve(ol) }()
	}
	stopOps := func() error {
		if ops == nil {
			return nil
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := ops.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-opsErrc; err != http.ErrServerClosed {
			return err
		}
		return nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	// SIGHUP re-scans -ref-dir in place (the classic "reload your config"
	// signal): new index files start serving, vanished ones are retired
	// without interrupting in-flight requests.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	for {
		select {
		case err := <-errc:
			stopOps()
			return err
		case err := <-opsErrc:
			return fmt.Errorf("ops listener: %w", err)
		case <-hup:
			if o.refDir == "" {
				log.Printf("genasm-serve: SIGHUP ignored (no -ref-dir)")
				continue
			}
			added, removed, err := s.ReloadRefs()
			if err != nil {
				log.Printf("genasm-serve: SIGHUP reload failed: %v", err)
				continue
			}
			log.Printf("genasm-serve: SIGHUP reloaded %s: added %v, removed %v", o.refDir, added, removed)
		case got := <-sig:
			log.Printf("genasm-serve: %v, shutting down", got)
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				return err
			}
			if err := <-errc; err != http.ErrServerClosed {
				return err
			}
			return stopOps()
		}
	}
}
