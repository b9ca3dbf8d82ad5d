package main

import (
	"bytes"
	"context"
	"sync/atomic"
	"time"

	"genasm"
)

// inProcess maps batches through the public library API: Mapper.MapReads
// then Mapper.WriteSAM, the job a caller linking the library runs.
type inProcess struct {
	m   *genasm.Mapper
	buf bytes.Buffer
}

// newInProcess indexes the genome and returns a ready mapper. The engine
// holds one workspace, so a batch maps its reads one after another and the
// timings do not depend on how many cores the machine has free.
func newInProcess(genome []byte, w workload, tr *stageTrace) (*inProcess, error) {
	e, err := genasm.NewEngine(genasm.WithMaxWorkspaces(1))
	if err != nil {
		return nil, err
	}
	m, err := e.NewMapper(genome, genasm.MapperConfig{
		SeedParams: genasm.SeedParams{SeedK: 15},
		ErrorRate:  w.profile.errRate,
		Prefilter:  w.prefilter,
		RefName:    refName,
		Trace:      tr.mapTrace(),
	})
	if err != nil {
		return nil, err
	}
	return &inProcess{m: m}, nil
}

// mapBatch maps one batch and returns its SAM, valid until the next call.
func (p *inProcess) mapBatch(ctx context.Context, batch []genasm.Read) ([]byte, error) {
	mps, err := p.m.MapReads(ctx, batch)
	if err != nil {
		return nil, err
	}
	p.buf.Reset()
	if err := p.m.WriteSAM(&p.buf, mps); err != nil {
		return nil, err
	}
	return p.buf.Bytes(), nil
}

// stageTrace sums the mapping pipeline's per-stage hooks. Its counters are
// the in-process source of the per-layer metrics; the served workload reads
// the same hooks from the server's /metrics instead.
type stageTrace struct {
	seedNs, filterNs, alignNs, readNs           atomic.Int64
	candidates, rejected, aligns, reads, mapped atomic.Int64
}

// mapTrace returns the hooks feeding t, or nil when t is nil (untraced).
func (t *stageTrace) mapTrace() *genasm.MapTrace {
	if t == nil {
		return nil
	}
	return &genasm.MapTrace{
		SeedingDone: func(_, candidates int, d time.Duration) {
			t.candidates.Add(int64(candidates))
			t.seedNs.Add(int64(d))
		},
		FilterDone: func(accepted bool, d time.Duration) {
			if !accepted {
				t.rejected.Add(1)
			}
			t.filterNs.Add(int64(d))
		},
		AlignDone: func(_ bool, d time.Duration) {
			t.aligns.Add(1)
			t.alignNs.Add(int64(d))
		},
		ReadDone: func(_, _, _ int, mapped bool, d time.Duration) {
			t.reads.Add(1)
			if mapped {
				t.mapped.Add(1)
			}
			t.readNs.Add(int64(d))
		},
	}
}

// snapshot reads the counters as pipeline totals.
func (t *stageTrace) snapshot() stageTotals {
	return stageTotals{
		seed:       time.Duration(t.seedNs.Load()),
		filter:     time.Duration(t.filterNs.Load()),
		align:      time.Duration(t.alignNs.Load()),
		pipeline:   time.Duration(t.readNs.Load()),
		candidates: float64(t.candidates.Load()),
		rejected:   float64(t.rejected.Load()),
		aligns:     float64(t.aligns.Load()),
		reads:      float64(t.reads.Load()),
		mapped:     float64(t.mapped.Load()),
	}
}

// stageTotals are cumulative mapping pipeline totals; the difference of two
// snapshots covers the reads mapped between them. handler is the time the
// server's /v1/map handler spent, zero in process.
type stageTotals struct {
	seed, filter, align, pipeline, handler      time.Duration
	candidates, rejected, aligns, reads, mapped float64
}

func (a stageTotals) sub(b stageTotals) stageTotals {
	return stageTotals{
		seed:       a.seed - b.seed,
		filter:     a.filter - b.filter,
		align:      a.align - b.align,
		pipeline:   a.pipeline - b.pipeline,
		handler:    a.handler - b.handler,
		candidates: a.candidates - b.candidates,
		rejected:   a.rejected - b.rejected,
		aligns:     a.aligns - b.aligns,
		reads:      a.reads - b.reads,
		mapped:     a.mapped - b.mapped,
	}
}
