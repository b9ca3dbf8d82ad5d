package genasm

import (
	"context"
	"fmt"
	"io"
	"iter"
	"slices"
	"sync"

	"genasm/internal/cigar"
	"genasm/internal/mapper"
	"genasm/internal/sam"
)

// MapperConfig parameterizes a Mapper. The zero value is the pipeline's
// default setup (seed length 15, up to 8 candidates per strand, 10%
// expected error rate, no pre-alignment filter).
type MapperConfig struct {
	// SeedParams are the shared seeding knobs (seed length, minimizer
	// window) — the same struct RefIndexConfig embeds. Leave zero when the
	// Mapper comes from a prebuilt index (NewMapperFromIndex), where both
	// are fixed by the file.
	SeedParams
	// MaxCandidates bounds the candidate locations tried per strand
	// (0 selects the default 8; negative is refused).
	MaxCandidates int
	// ErrorRate is the expected sequencing error rate, used for region
	// slack and the filtering threshold: in [0, 1], 0 selects the default
	// 0.10.
	ErrorRate float64
	// Prefilter enables GenASM-DC pre-alignment filtering (step 2 of
	// Figure 1) between seeding and alignment.
	Prefilter bool
	// RefName names the reference in SAM output (default "ref").
	RefName string
	// Trace attaches per-stage pipeline hooks (seeding, filtering,
	// alignment, per-read) to every read this Mapper maps. See MapTrace.
	Trace *MapTrace
}

// Read is one named read for mapping.
type Read struct {
	Name string
	Seq  []byte
}

// ReadMapping is the result of mapping one read. It keeps the best
// alignment's runs, not its CIGAR strings: the CIGAR and ClassicCIGAR
// methods render them when called, and WriteSAM renders the runs straight
// into each record, so mapping and writing SAM never build the strings.
type ReadMapping struct {
	// Name of the read (copied from the Read, empty for MapRead).
	Name string
	// Mapped reports whether any candidate produced an alignment.
	Mapped bool
	// Pos is the reference position the read aligned to.
	Pos int
	// RevComp reports whether the reverse-complement strand aligned.
	RevComp bool
	// Distance is the edit distance of the best alignment.
	Distance int
	// Candidates, Filtered and Aligned count the candidate locations
	// considered, rejected by the pre-alignment filter, and aligned.
	Candidates, Filtered, Aligned int

	runs cigar.Cigar
	seq  []byte // encoded read, for SAM output
}

// CIGAR returns the extended CIGAR string ('='/'X'/'I'/'D') of the best
// alignment, or "" when the read did not map. Each call renders the
// string anew.
func (mp ReadMapping) CIGAR() string {
	if !mp.Mapped {
		return ""
	}
	return mp.runs.Format(true)
}

// ClassicCIGAR is CIGAR with '=' and 'X' merged into 'M' runs, as in
// classic SAM.
func (mp ReadMapping) ClassicCIGAR() string {
	if !mp.Mapped {
		return ""
	}
	return mp.runs.Format(false)
}

// Mapper maps reads against an indexed reference with the full four-step
// pipeline of the paper's Figure 1 — seeding, optional GenASM-DC
// pre-alignment filtering, and GenASM read alignment — and renders SAM.
//
// A Mapper is safe for concurrent use: the index is read-only after
// construction and alignment scratch is drawn from the Engine's workspace
// pool. Build one with Engine.NewMapper.
type Mapper struct {
	e        *Engine
	m        *mapper.Mapper
	refName  string
	idxStats IndexStats
}

// NewMapper indexes the reference (letters) and returns a ready Mapper:
// BuildRefIndex with cfg's seeding knobs and RefName, then
// NewMapperFromIndex. The engine must use the DNA alphabet (mapping tries
// both strands).
//
// The alignment step draws scratch from the engine's own workspace pool,
// so mapping always counts against Engine.Capacity and shows in
// Engine.Stats. Candidate alignments search the first window for their
// start whatever the engine's SearchStart.
func (e *Engine) NewMapper(ref []byte, cfg MapperConfig) (*Mapper, error) {
	ri, err := e.BuildRefIndex(ref, RefIndexConfig{SeedParams: cfg.SeedParams, RefName: cfg.RefName})
	if err != nil {
		return nil, err
	}
	cfg.SeedParams = SeedParams{}
	return e.NewMapperFromIndex(ri, cfg)
}

// Map is the one-shot read-mapping convenience: it indexes ref with the
// default MapperConfig, maps every read, and returns the mappings in read
// order. For repeated mapping against one reference, build a Mapper once
// with NewMapper so the index is reused.
func (e *Engine) Map(ctx context.Context, ref []byte, reads []Read) ([]ReadMapping, error) {
	m, err := e.NewMapper(ref, MapperConfig{})
	if err != nil {
		return nil, err
	}
	return m.MapReads(ctx, reads)
}

// RefName returns the reference name used in SAM output.
func (m *Mapper) RefName() string { return m.refName }

// RefLen returns the indexed reference length.
func (m *Mapper) RefLen() int { return m.idxStats.RefLen }

// MapRead maps one read (letters), trying both strands, and returns the
// lowest-edit-distance alignment across all surviving candidates.
// Candidates are tried strongest first: the forward strand's while they
// have at least three seed votes, then both strands' merged by votes, so
// the reverse strand is seeded only when the forward strand runs out of
// such candidates. The first alignment within the expected error rate
// ends the read.
func (m *Mapper) MapRead(ctx context.Context, read []byte) (ReadMapping, error) {
	enc, err := m.e.encode("read", read)
	if err != nil {
		return ReadMapping{}, err
	}
	mp, err := m.m.MapReadContext(ctx, enc)
	if err != nil {
		return ReadMapping{}, err
	}
	return ReadMapping{
		Mapped:     mp.Mapped,
		Pos:        mp.Pos,
		RevComp:    mp.RevComp,
		Distance:   mp.Distance,
		Candidates: mp.Candidates,
		Filtered:   mp.Filtered,
		Aligned:    mp.Aligned,
		runs:       mp.Cigar,
		seq:        enc,
	}, nil
}

// MappingResult pairs one streamed read's ReadMapping with its error.
// Per-read failures (bad letters, context cancellation) land here, so one
// bad read never poisons the rest of a stream.
type MappingResult struct {
	// Index is the 0-based position of the read in the input stream —
	// how Unordered stream consumers reassociate results with reads.
	Index   int
	Mapping ReadMapping
	Err     error
}

// MapStream maps a stream of reads and yields a stream of results — the
// bounded-memory core behind MapReads and the shape of the primary
// workload end to end: FASTQ reads in, mappings (SAM via WriteSAMStream)
// out, in O(1) read memory. Reads are pulled from the iterator on demand.
// A one-workspace engine maps each on the calling goroutine as it is
// pulled; a larger one fans them out over at most Engine.Capacity worker
// goroutines, with only ~2×Capacity reads in flight or buffered at any
// moment regardless of stream length.
//
// By default results come back in input order with per-read errors in
// MappingResult.Err. With the Unordered option, results are yielded as
// they complete, identified by MappingResult.Index.
//
// When ctx ends, reads that have not started carry ctx.Err() in their
// MappingResult and the stream drains promptly. Stopping iteration early
// stops dispatch; reads already picked up by workers finish in the
// background. The returned iterator is single-use.
func (m *Mapper) MapStream(ctx context.Context, reads iter.Seq[Read], opts ...StreamOption) iter.Seq[MappingResult] {
	var s streamSettings
	for _, o := range opts {
		o(&s)
	}
	return m.mapStream(ctx, m.e.Capacity(), !s.unordered, reads)
}

// mapStream is MapStream over at most workers workers.
func (m *Mapper) mapStream(ctx context.Context, workers int, ordered bool, reads iter.Seq[Read]) iter.Seq[MappingResult] {
	return fanOut(workers, ordered, reads, func(idx int, r Read) MappingResult {
		if err := ctx.Err(); err != nil {
			return MappingResult{Index: idx, Err: err}
		}
		mp, err := m.MapRead(ctx, r.Seq)
		if err != nil {
			return MappingResult{Index: idx, Mapping: ReadMapping{Name: r.Name}, Err: err}
		}
		mp.Name = r.Name
		return MappingResult{Index: idx, Mapping: mp}
	})
}

// MapReads maps a read set, returning mappings in read order. It shares
// MapStream's core over min(Engine.Capacity, len(reads)) workers, so a
// one-workspace engine or a one-read set maps on the calling goroutine.
// It stops at the first pipeline error in read order (unmappable reads
// are not errors — they come back with Mapped false).
func (m *Mapper) MapReads(ctx context.Context, reads []Read) ([]ReadMapping, error) {
	out := make([]ReadMapping, len(reads))
	for res := range m.mapStream(ctx, min(m.e.Capacity(), len(reads)), true, slices.Values(reads)) {
		if res.Err != nil {
			return nil, fmt.Errorf("genasm: read %d (%s): %w", res.Index, reads[res.Index].Name, res.Err)
		}
		out[res.Index] = res.Mapping
	}
	return out, nil
}

// samRecord renders one mapping as a SAM record; idx names nameless reads.
func (m *Mapper) samRecord(idx int, mp ReadMapping) sam.Record {
	name := mp.Name
	if name == "" {
		name = fmt.Sprintf("read%d", idx)
	}
	rec := sam.Record{QName: name, Seq: mp.seq}
	if !mp.Mapped {
		rec.Flag = sam.FlagUnmapped
	} else {
		rec.RName = m.refName
		rec.Pos = mp.Pos + 1
		rec.MapQ = 60
		rec.Cigar = mp.runs
		rec.EditDistance = mp.Distance
		rec.Score = cigar.Minimap2.Score(mp.runs)
		if mp.RevComp {
			rec.Flag |= sam.FlagReverse
		}
	}
	return rec
}

// samWriters pools the SAM writers behind WriteSAM and WriteSAMStream, so
// a call reuses an earlier call's output buffer and line buffer instead of
// allocating and regrowing them.
var samWriters = sync.Pool{New: func() any { return sam.NewWriter(nil) }}

func getSAMWriter(dst io.Writer) *sam.Writer {
	sw := samWriters.Get().(*sam.Writer)
	sw.Reset(dst)
	return sw
}

// putSAMWriter returns sw to the pool without its destination, which the
// pool must not keep alive.
func putSAMWriter(sw *sam.Writer) {
	sw.Reset(nil)
	samWriters.Put(sw)
}

// WriteSAM renders mappings as a SAM stream — header plus one record per
// mapping, with the NM (edit distance) and AS (alignment score, Minimap2
// scheme) tags. Mappings without a Name are written as "readN" by index.
func (m *Mapper) WriteSAM(w io.Writer, mappings []ReadMapping) error {
	sw := getSAMWriter(w)
	defer putSAMWriter(sw)
	if err := sw.WriteHeader(m.refName, m.RefLen()); err != nil {
		return err
	}
	for i, mp := range mappings {
		if err := sw.WriteRecord(m.samRecord(i, mp)); err != nil {
			return err
		}
	}
	return sw.Flush()
}

// WriteSAMStream renders a result stream (usually MapStream's output) as
// SAM: header first, then one record per result, flushed as written so
// downstream consumers see records as they are produced — combined with
// MapStream and a streaming reads source this maps FASTQ to SAM in O(1)
// read memory. Wrap w in a bufio.Writer when per-record write syscalls
// matter more than latency.
//
// The first MappingResult.Err aborts the stream and is returned (SAM has
// no in-band error channel). Mappings without a Name are written as
// "readN" by stream index.
func (m *Mapper) WriteSAMStream(w io.Writer, results iter.Seq[MappingResult]) error {
	sw := getSAMWriter(w)
	defer putSAMWriter(sw)
	if err := sw.WriteHeader(m.refName, m.RefLen()); err != nil {
		return err
	}
	for res := range results {
		if res.Err != nil {
			return fmt.Errorf("genasm: read %d (%s): %w", res.Index, res.Mapping.Name, res.Err)
		}
		if err := sw.WriteRecord(m.samRecord(res.Index, res.Mapping)); err != nil {
			return err
		}
		if err := sw.Flush(); err != nil {
			return err
		}
	}
	return sw.Flush()
}
