package genasm

import (
	"fmt"
	"time"

	"genasm/internal/faults"
	"genasm/internal/index"
	"genasm/internal/indexfile"
	"genasm/internal/mapper"
)

// IndexBackend selects the candidate-generation backend of a RefIndex.
type IndexBackend string

const (
	// IndexHash indexes every k-mer of the reference — fastest lookups,
	// largest index.
	IndexHash IndexBackend = "hash"
	// IndexMinimizer samples window minimizers (Minimap2's scheme),
	// shrinking the index roughly 2/(w+1)-fold.
	IndexMinimizer IndexBackend = "minimizer"
	// IndexSuffixArray builds a suffix array (SA-IS) with binary-search
	// seeding — compact ordered structure, O(log n) lookups.
	IndexSuffixArray IndexBackend = "suffixarray"
)

// SeedParams is the one shared home of the seeding knobs: both reference
// indexing (RefIndexConfig) and mapping (MapperConfig) embed it, so the two
// surfaces cannot drift apart. The zero value selects the defaults.
type SeedParams struct {
	// SeedK is the seed length (default 15, max 31 — longer seeds no
	// longer fit the 2-bit packed uint64 keys and are rejected with a
	// typed KRangeError).
	SeedK int
	// MinimizerW samples the index with window minimizers when > 0
	// (Minimap2's scheme), shrinking the index roughly 2/(w+1)-fold. Only
	// meaningful for minimizer-backed indexes (default 10 there).
	MinimizerW int
}

// RefIndexConfig parameterizes BuildRefIndex. The zero value builds a hash
// index with the default seed length.
type RefIndexConfig struct {
	// Backend selects the index structure. Empty defaults to IndexHash, or
	// IndexMinimizer when MinimizerW > 0.
	Backend IndexBackend
	// SeedParams are the shared seeding knobs (seed length, minimizer
	// window).
	SeedParams
	// RefName names the reference in SAM output and is stored in written
	// index files (default "ref").
	RefName string
}

// RefIndex is a reference seed index that can be persisted to disk and
// loaded back without rebuilding — the mapper equivalent of Minimap2's
// .mmi files. Build one offline with Engine.BuildRefIndex (then WriteFile),
// or load a prebuilt file with LoadRefIndex; either way,
// Engine.NewMapperFromIndex turns it into a ready Mapper with no indexing
// work at all.
//
// A RefIndex is safe for concurrent lookups. A loaded RefIndex may be
// backed by a file mapping: keep it open for as long as any Mapper built
// from it is in use, and Close it when done.
type RefIndex struct {
	idx     index.SeedIndex
	refName string
	source  string // "built", "mmap" or "memory"
	digest  uint64
	bytes   int64 // on-disk size when loaded, 0 when built
	load    time.Duration
	closer  func() error
}

// BuildRefIndex encodes the reference (letters) and builds a seed index
// over it. The engine must use the DNA alphabet.
func (e *Engine) BuildRefIndex(ref []byte, cfg RefIndexConfig) (*RefIndex, error) {
	if e.cfg.Alphabet != DNA {
		return nil, fmt.Errorf("genasm: reference indexing requires the DNA alphabet, engine uses %s", e.cfg.Alphabet)
	}
	encRef, err := e.encode("reference", ref)
	if err != nil {
		return nil, err
	}
	k := cfg.SeedK
	if k == 0 {
		k = 15
	}
	backend := cfg.Backend
	if backend == "" {
		backend = IndexHash
		if cfg.MinimizerW > 0 {
			backend = IndexMinimizer
		}
	}
	var idx index.SeedIndex
	switch backend {
	case IndexHash:
		if cfg.MinimizerW > 0 {
			return nil, fmt.Errorf("genasm: MinimizerW is set but Backend is %q", backend)
		}
		idx, err = index.Build(encRef, k)
	case IndexMinimizer:
		w := cfg.MinimizerW
		if w == 0 {
			w = 10
		}
		idx, err = index.BuildMinimizer(encRef, k, w)
	case IndexSuffixArray:
		if cfg.MinimizerW > 0 {
			return nil, fmt.Errorf("genasm: MinimizerW is set but Backend is %q", backend)
		}
		idx, err = index.BuildSuffixArray(encRef, k)
	default:
		return nil, fmt.Errorf("genasm: unknown index backend %q", backend)
	}
	if err != nil {
		return nil, err
	}
	refName := cfg.RefName
	if refName == "" {
		refName = "ref"
	}
	return &RefIndex{
		idx:     idx,
		refName: refName,
		source:  "built",
		digest:  indexfile.RefDigest(encRef),
	}, nil
}

// LoadRefIndex loads a prebuilt index file (see RefIndex.WriteFile and the
// `genasm index build` command), mmapping it when the platform supports it
// so load time is independent of index size. The file's structure, whole-
// file checksum and reference digest are verified; a damaged or
// incompatible file is an error, never a panic.
func LoadRefIndex(path string) (*RefIndex, error) {
	start := time.Now()
	if err := faults.Fire(faults.SiteIndexMmap); err != nil {
		return nil, err
	}
	f, err := indexfile.Load(path)
	if err != nil {
		return nil, err
	}
	source := "memory"
	if f.Info.Mapped {
		source = "mmap"
	}
	return &RefIndex{
		idx:     f.Index,
		refName: f.Info.RefName,
		source:  source,
		digest:  f.Info.RefDigest,
		bytes:   f.Info.FileBytes,
		load:    time.Since(start),
		closer:  f.Close,
	}, nil
}

// WriteFile persists the index in the versioned on-disk format, ready for
// LoadRefIndex.
func (ri *RefIndex) WriteFile(path string) error {
	return indexfile.WriteFile(path, ri.idx, ri.refName)
}

// RefName returns the reference name recorded in the index.
func (ri *RefIndex) RefName() string { return ri.refName }

// Close releases the underlying file mapping, if any. The RefIndex and
// every Mapper built from it must not be used afterwards. Safe to call on
// a built (non-loaded) index and safe to call twice.
func (ri *RefIndex) Close() error {
	c := ri.closer
	ri.closer = nil
	if c != nil {
		return c()
	}
	return nil
}

// IndexStats describes a reference index.
type IndexStats struct {
	// Backend is the index kind: "hash", "minimizer" or "suffixarray".
	Backend string
	// K is the seed length; MinimizerW the sampling window (0 = none).
	K, MinimizerW int
	// RefLen is the indexed reference length in bases.
	RefLen int
	// Seeds is the number of indexed seed positions; Buckets the number of
	// distinct seed keys (0 where the backend has no bucket structure).
	Seeds, Buckets int
	// Bytes approximates the in-memory footprint of the index structures.
	Bytes int64
	// RefDigest identifies the reference independent of backend (two
	// indexes over the same reference share it).
	RefDigest uint64
	// Source reports where the index came from: "built" in this process,
	// "mmap" from a mapped file, or "memory" from a file read into RAM.
	Source string
	// FileBytes is the on-disk size when loaded from a file, 0 otherwise.
	FileBytes int64
	// LoadTime is the wall time of LoadRefIndex, 0 for built indexes.
	LoadTime time.Duration
}

// Stats describes the index: backend, parameters, footprint and origin.
func (ri *RefIndex) Stats() IndexStats {
	st := ri.idx.Stats()
	return IndexStats{
		Backend:    st.Backend,
		K:          st.K,
		MinimizerW: st.MinimizerW,
		RefLen:     st.RefLen,
		Seeds:      st.Seeds,
		Buckets:    st.Buckets,
		Bytes:      st.Bytes,
		RefDigest:  ri.digest,
		Source:     ri.source,
		FileBytes:  ri.bytes,
		LoadTime:   ri.load,
	}
}

// NewMapperFromIndex builds a Mapper over a prebuilt RefIndex, skipping
// the indexing step — the fast-start path for servers and repeated runs.
// cfg.SeedK and cfg.MinimizerW are taken from the index and must be left
// zero; cfg.RefName overrides the name recorded in the index. The RefIndex
// must stay open (not Closed) for the Mapper's lifetime.
func (e *Engine) NewMapperFromIndex(ri *RefIndex, cfg MapperConfig) (*Mapper, error) {
	if e.cfg.Alphabet != DNA {
		return nil, fmt.Errorf("genasm: read mapping requires the DNA alphabet, engine uses %s", e.cfg.Alphabet)
	}
	if cfg.SeedK != 0 || cfg.MinimizerW != 0 {
		return nil, fmt.Errorf("genasm: SeedK/MinimizerW are fixed by the prebuilt index; leave them zero")
	}
	alignPool, err := e.mapperAlignPool()
	if err != nil {
		return nil, err
	}
	m, err := mapper.New(ri.idx, mapper.Config{
		MaxCandidates: cfg.MaxCandidates,
		ErrorRate:     cfg.ErrorRate,
		Prefilter:     cfg.Prefilter,
		Aligner:       mapper.PoolAligner{Pool: alignPool},
		Trace:         (*mapper.Trace)(cfg.Trace),
	})
	if err != nil {
		return nil, err
	}
	refName := cfg.RefName
	if refName == "" {
		refName = ri.refName
	}
	if refName == "" {
		refName = "ref"
	}
	return &Mapper{e: e, m: m, refName: refName, idxStats: ri.Stats()}, nil
}

// IndexStats describes the Mapper's seed index: backend, parameters,
// footprint and origin ("built" unless the Mapper came from
// NewMapperFromIndex over a loaded file).
func (m *Mapper) IndexStats() IndexStats { return m.idxStats }
