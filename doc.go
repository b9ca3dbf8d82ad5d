// Package genasm is a Go implementation of GenASM (Senol Cali et al.,
// MICRO 2020): a Bitap-based approximate string matching framework for
// genome sequence analysis, consisting of the GenASM-DC distance
// calculation algorithm (multi-word Bitap with windowed divide-and-conquer)
// and the GenASM-TB traceback algorithm (the first Bitap-compatible
// traceback), together with a model of the paper's systolic-array hardware
// accelerator.
//
// # Engine
//
// Engine is the single front door to every use case the paper evaluates.
// It is built once with NewEngine (functional options configure alphabet,
// windowing and pool sizing), is safe for concurrent use by any number of
// goroutines, and serves every call context-first: all alignment work,
// read mapping included, draws reusable workspaces from one
// capacity-bounded pool — the
// software analogue of the accelerator's one-GenASM-unit-per-vault layout
// (Section 7) — and a context that ends while the pool is saturated
// returns ctx.Err() promptly.
//
//   - read alignment: Engine.Align / Engine.AlignGlobal produce a CIGAR
//     and edit distance for a query against a reference region of any
//     length;
//   - edit distance: Engine.EditDistance works on sequences of arbitrary
//     length through the divide-and-conquer windows (Section 10.4);
//   - pre-alignment filtering: Engine.Filter gives a fast accept/reject
//     decision for a (region, read) pair under an edit distance threshold
//     (Section 10.3), drawing scratch from an engine-owned pool;
//   - generic text search: Engine.Search scans any alphabet, including raw
//     Bytes (Section 11); Engine.Compile returns a CompiledPattern that
//     amortizes the pattern pre-processing across repeated Search/Filter
//     calls on one pattern;
//   - batch alignment: Engine.AlignBatch streams jobs through the engine's
//     pool with per-job error reporting;
//   - read mapping: Engine.NewMapper indexes a reference and returns a
//     concurrency-safe Mapper running the full Figure 1 pipeline (seeding,
//     optional GenASM-DC filtering, GenASM alignment) with SAM output;
//     Engine.Map is the one-shot convenience.
//
// # Streaming
//
// The batch and mapping slice APIs are thin wrappers over an
// iterator-based stream core — the shape of the accelerator's throughput
// story (reads streaming through a fixed count of per-vault GenASM units,
// Section 10.5) and of the primary workload, where a FASTQ stream of
// reads becomes a SAM stream of records. Engine.AlignStream turns an
// iter.Seq[BatchJob] into an iter.Seq[BatchResult], and Mapper.MapStream
// an iter.Seq[Read] into an iter.Seq[MappingResult]: jobs are pulled on
// demand and fanned out over at most Engine.Capacity lazily-spawned
// workers, results come back in input order (or as completed, with the
// Unordered option) and memory stays bounded by the worker count — O(1)
// in the stream length. With one worker — a one-workspace engine, or a
// one-job AlignBatch or MapReads — each job runs on the calling goroutine
// as it is pulled, with no goroutines or channels at all. Mapper.WriteSAMStream renders a result stream as
// SAM record by record.
//
// The genasm/seqio package is the file-facing half: streaming FASTA and
// FASTQ readers (gzip and format autodetection, CRLF and lowercase
// tolerance, line-numbered errors on corrupt records) that yield
// iter.Seq2[Record, error], so `genasm map -reads reads.fastq.gz` maps a
// read set of any size in constant read memory.
//
// Inputs are ASCII letters of the engine's alphabet (e.g. "ACGT" for DNA);
// letters outside it are reported as *AlphabetError. Accelerator models
// the performance, area and power of the hardware design.
//
// # Persistent reference indexes
//
// Engine.NewMapper rebuilds the seed index from the reference on every
// call. For references mapped against repeatedly, Engine.BuildRefIndex
// constructs a RefIndex once — every k-mer by default, or window
// minimizers when SeedParams.MinimizerW > 0 — RefIndex.WriteFile persists
// it in a versioned, checksummed on-disk format, and LoadRefIndex
// memory-maps it back (falling back to a heap copy where mmap is
// unavailable); files of format version 1 must be rebuilt. Engine.NewMapperFromIndex then boots a Mapper in
// file-validation time rather than index-construction time; the built and
// loaded forms of one index produce identical mappings, and the loaded
// index seeds without allocating. `genasm index build`/`inspect` and `genasm-serve -ref-index`
// are the command-line faces of the same workflow.
//
// # Kernels
//
// The engine runs one kernel, Scrooge's: its SENE optimization stores one
// bitvector per traceback entry instead of the paper's three per-edge
// vectors, and the DC scan runs level-major, computing each error level
// across the window from the level below and stopping at the first level
// that matches, so a window computes exactly the levels of its distance.
// Pooled workspaces are about 3x smaller than with the paper's original
// storage layout. That layout survives only as a test oracle in
// internal/core: its Algorithm 1 scan pins the traceback's re-derived
// edges bit for bit, and a single-word fast walker is differentially
// tested and fuzzed against the generic one.
//
// Windows take W pattern and W text letters, except the first window of a
// search-mode alignment (read mapping's, whose region start is
// approximate): when more windows follow, it spans 2W text letters, so a
// true start up to W letters into the region still leaves room for the
// window's W pattern letters. A read mapper's region starts 16 bp before
// the seed anchor, and an anchor 18 bp early puts the true start 34
// letters in. Each window's pattern bitmasks are rebuilt from its
// pattern letters; over DNA they are gathered eight letters per step into
// two bit planes and stored once per word.
//
// # Result retention and CIGAR arenas
//
// The public API returns caller-owned values: Alignment.CIGAR strings,
// ReadMapping results and the runs behind Alignment.Score are copied out
// of the engine's pooled scratch before a workspace returns to the pool,
// so they may be stored, sent across goroutines and retained freely.
//
// The internal core is allocation-free instead: a workspace accumulates
// each alignment's CIGAR in a reusable arena and core.Alignment.Cigar is a
// view of it, valid only until the next Align/AlignGlobal/EditDistance
// call on the same workspace — the software analogue of reading the
// accelerator's output SRAM before the next launch. Callers that retain
// such a result must copy it first (core.Alignment.Clone, or
// cigar.Cigar.Clone / CloneInto for the runs alone); callers that only
// inspect it before the next call pay nothing. The mapping pipeline's one
// alignment step (mapper.Aligner.AlignRegionInto) retains without
// allocating: it copies each candidate's CIGAR into a buffer the pipeline
// reuses, while the workspace is still checked out, so only the final
// mapping allocates.
//
// # Observability and trace hooks
//
// The pipeline exposes net/http/httptrace-style hook structs so callers
// can watch every stage without wrapping the API. MapTrace (attached via
// MapperConfig.Trace) fires after seeding, after each pre-alignment
// filter decision, after each candidate alignment and once per finished
// read — the software rendition of the paper's per-stage breakdown
// (Figure 1). AlignTrace (attached with Engine.SetAlignTrace) fires when
// an alignment obtains a pooled workspace (with the wait, the saturation
// signal of the per-vault GenASM units) and when it finishes (with sizes,
// duration and error). Hooks run synchronously on the hot path and the
// traced path performs no additional allocations, so metrics-backed
// traces can stay attached in production; the HTTP server does exactly
// that, feeding the Prometheus registry in internal/metrics that
// GET /metrics exposes.
//
// # Migrating from the pre-Engine API
//
// Engine is the only entry point; the pre-Engine symbols are removed, as
// is the index-backend choice:
//
//	NewAligner(cfg), Aligner    ->  NewEngine(WithConfig(cfg))
//	Aligner.Align(t, q)         ->  Engine.Align(ctx, t, q)
//	NewPool(PoolConfig{...})    ->  NewEngine(WithConfig(...), WithMaxWorkspaces(m))
//	Pool.AlignContext(ctx,t,q)  ->  Engine.Align(ctx, t, q)
//	DefaultPool(), Pool.Engine  ->  DefaultEngine()
//	EditDistance(a, b)          ->  Engine.EditDistance(ctx, a, b)
//	AlignBatch(cfg, jobs, n)    ->  Engine.AlignBatch(ctx, jobs)
//	Search(alpha, t, p, k)      ->  Engine.Search(ctx, t, p, k) or Engine.Compile(p, k)
//	Filter(region, read, k)     ->  Engine.Filter(ctx, region, read, k)
//	WithKernel, Kernel          ->  none: the Scrooge kernel always runs
//	RefIndexConfig.Backend      ->  SeedParams.MinimizerW > 0 samples minimizers
//	IndexHash                   ->  the zero value: every k-mer
//	IndexMinimizer              ->  SeedParams.MinimizerW > 0
//	IndexSuffixArray            ->  none: set MinimizerW for a small index
//
// # Serving
//
// The genasm-serve command (cmd/genasm-serve) exposes one shared Engine as
// a long-running HTTP JSON service with align, batch and read-mapping
// endpoints — including POST /v1/map/stream, which accepts FASTA, FASTQ
// or NDJSON reads in the request body and streams NDJSON or SAM back with
// flush-per-record backpressure — plus bounded admission queueing (429 on
// overload), graceful shutdown, Prometheus metrics on GET /metrics,
// structured request logging and an optional private ops listener with
// pprof; see internal/server for the API.
//
// The server is multi-reference: -ref-dir serves a directory of persisted
// index files as named references (the software echo of the accelerator
// partitioning the reference across vault-local DRAM), each mmap-loaded
// lazily on first use, pinned by in-flight requests, and evicted
// least-recently-used under a resident-bytes budget. Requests name their
// reference with a "ref" field or query parameter, an admin surface under
// /v1/refs lists, pre-warms, removes and hot-reloads references without a
// restart, and admission distinguishes interactive from batch priority
// (X-Genasm-Priority) so bulk traffic is shed first under overload; see
// internal/registry for the registry itself. The underlying algorithm
// packages live in internal/ and operate on dense codes.
//
// The serving stack is resilient by construction. Request deadlines
// propagate end to end — through admission, the workspace pool and into
// the core DC loop, which polls cancellation between windows — so a
// context that expires mid-alignment returns ctx.Err() (the server turns
// it into a 504 "timeout" envelope) instead of burning a workspace.
// Every pooled alignment runs inside a recover boundary: a panic in the
// kernel surfaces as *PanicError (carrying the site and stack) rather
// than tearing the process down, and the panicking workspace is
// quarantined — dropped from the pool, visible as PoolStats.Quarantined —
// so corrupted scratch state can never serve a later request. Reference
// loads retry with backoff behind a per-reference circuit breaker, the
// server sheds batch work first in a hysteretic degraded mode, and the
// internal/faults harness injects errors, latency and panics at named
// sites for chaos testing with zero cost while disabled.
package genasm
