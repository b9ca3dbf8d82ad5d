package genasm

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"testing"

	"genasm/internal/index"
	"genasm/internal/seq"
	"genasm/internal/simulate"
)

// diffTestMappers builds, for each backend, the in-memory mapper, a mapper
// over the same index written to disk and loaded back, and — for the
// backends MapperConfig can select (hash, minimizer) — the one-call
// Engine.NewMapper over the same seeding knobs.
func diffTestMappers(t *testing.T, e *Engine, refLetters []byte) map[string][]*Mapper {
	t.Helper()
	dir := t.TempDir()
	out := make(map[string][]*Mapper)
	for _, backend := range []IndexBackend{IndexHash, IndexMinimizer, IndexSuffixArray} {
		cfg := RefIndexConfig{Backend: backend, SeedParams: SeedParams{SeedK: 13}, RefName: "chrD"}
		if backend == IndexMinimizer {
			cfg.MinimizerW = 5
		}
		built, err := e.BuildRefIndex(refLetters, cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, string(backend)+".gidx")
		if err := built.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadRefIndex(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { loaded.Close() })
		if got, want := loaded.Stats().RefDigest, built.Stats().RefDigest; got != want {
			t.Fatalf("%s: digest %#x after reload, want %#x", backend, got, want)
		}
		mMem, err := e.NewMapperFromIndex(built, MapperConfig{ErrorRate: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		mFile, err := e.NewMapperFromIndex(loaded, MapperConfig{ErrorRate: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		out[string(backend)] = []*Mapper{mMem, mFile}
		if backend != IndexSuffixArray {
			mNew, err := e.NewMapper(refLetters, MapperConfig{SeedParams: cfg.SeedParams, ErrorRate: 0.05, RefName: cfg.RefName})
			if err != nil {
				t.Fatal(err)
			}
			out[string(backend)] = append(out[string(backend)], mNew)
		}
	}
	return out
}

// TestBackendDifferential pins the cross-backend and cross-storage
// invariants over fuzzed reads: every backend's mmap-loaded form (and, for
// hash and minimizer, its Engine.NewMapper form) maps identically to its
// in-memory form, with the same IndexStats and byte-identical SAM, and the
// hash and suffix-array backends (which see exactly the same seed hits)
// agree with each other. The minimizer backend samples seeds, so it is
// only held to its own storage-identity invariant.
func TestBackendDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 0))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(40000))
	refLetters := alphabetDecode(genome)
	e := newTestEngine(t)
	mappers := diffTestMappers(t, e, refLetters)

	reads, err := simulate.Reads(rng, genome, 40, simulate.Illumina100, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	all := make(map[string][][]ReadMapping) // backend → mapper → read
	for i, r := range reads {
		letters := alphabetDecode(r.Seq)
		for backend, ms := range mappers {
			if all[backend] == nil {
				all[backend] = make([][]ReadMapping, len(ms))
			}
			for j, m := range ms {
				mp, err := m.MapRead(ctx, letters)
				if err != nil {
					t.Fatalf("read %d %s mapper %d: %v", i, backend, j, err)
				}
				// Storage and constructor identity: neither loading an
				// index nor building it inside NewMapper may change any
				// field of any mapping.
				if j > 0 && !reflect.DeepEqual(mp, all[backend][0][i]) {
					t.Fatalf("read %d %s: mapper %d %+v, in-memory %+v", i, backend, j, mp, all[backend][0][i])
				}
				all[backend][j] = append(all[backend][j], mp)
			}
		}
		hash, sa := all["hash"][0][i], all["suffixarray"][0][i]
		if !reflect.DeepEqual(hash, sa) {
			t.Fatalf("read %d: hash mapping %+v, suffix-array mapping %+v", i, hash, sa)
		}
		// The minimizer backend samples, so candidate sets can differ —
		// but on these low-error simulated reads it must still find the
		// same location when it maps.
		mini := all["minimizer"][0][i]
		if mini.Mapped && hash.Mapped {
			if mini.Pos != hash.Pos || mini.RevComp != hash.RevComp || mini.Distance != hash.Distance {
				t.Fatalf("read %d: minimizer (pos=%d rc=%v d=%d) vs hash (pos=%d rc=%v d=%d)",
					i, mini.Pos, mini.RevComp, mini.Distance, hash.Pos, hash.RevComp, hash.Distance)
			}
		}
	}

	for backend, ms := range mappers {
		want := ms[0].IndexStats()
		var wantSAM bytes.Buffer
		if err := ms[0].WriteSAM(&wantSAM, all[backend][0]); err != nil {
			t.Fatal(err)
		}
		for j, m := range ms[1:] {
			got := m.IndexStats()
			if j == 0 {
				// The loaded index differs from the built one only in its
				// origin; both hold the same arrays, so even the footprint
				// is equal.
				got.Source, got.FileBytes, got.LoadTime = want.Source, want.FileBytes, want.LoadTime
			}
			if got != want {
				t.Errorf("%s mapper %d: IndexStats %+v, in-memory %+v", backend, j+1, got, want)
			}
			var sam bytes.Buffer
			if err := m.WriteSAM(&sam, all[backend][j+1]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sam.Bytes(), wantSAM.Bytes()) {
				t.Errorf("%s mapper %d: SAM differs from in-memory:\n%s\nvs\n%s", backend, j+1, sam.String(), wantSAM.String())
			}
		}
	}
}

func TestRefIndexStatsAndSources(t *testing.T) {
	rng := rand.New(rand.NewPCG(78, 0))
	refLetters := alphabetDecode(seq.Genome(rng, seq.DefaultGenomeConfig(5000)))
	e := newTestEngine(t)

	built, err := e.BuildRefIndex(refLetters, RefIndexConfig{Backend: IndexSuffixArray, SeedParams: SeedParams{SeedK: 11}})
	if err != nil {
		t.Fatal(err)
	}
	st := built.Stats()
	if st.Backend != "suffixarray" || st.K != 11 || st.RefLen != 5000 || st.Source != "built" {
		t.Errorf("built stats = %+v", st)
	}
	if st.FileBytes != 0 || st.LoadTime != 0 {
		t.Errorf("built stats carry file fields: %+v", st)
	}

	path := filepath.Join(t.TempDir(), "sa.gidx")
	if err := built.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRefIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	lst := loaded.Stats()
	if lst.Source != "mmap" && lst.Source != "memory" {
		t.Errorf("loaded source = %q", lst.Source)
	}
	if lst.FileBytes <= 0 || lst.RefDigest != st.RefDigest || lst.Seeds != st.Seeds {
		t.Errorf("loaded stats = %+v, built %+v", lst, st)
	}
	if loaded.RefName() != "ref" {
		t.Errorf("RefName = %q", loaded.RefName())
	}

	m, err := e.NewMapperFromIndex(loaded, MapperConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ms := m.IndexStats(); ms.Backend != "suffixarray" || ms.Source != lst.Source {
		t.Errorf("mapper IndexStats = %+v", ms)
	}
	if m.RefName() != "ref" || m.RefLen() != 5000 {
		t.Errorf("mapper RefName=%q RefLen=%d", m.RefName(), m.RefLen())
	}
	// A classic NewMapper reports a built hash index.
	m2, err := e.NewMapper(refLetters, MapperConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ms := m2.IndexStats(); ms.Backend != "hash" || ms.Source != "built" || ms.RefDigest != st.RefDigest {
		t.Errorf("NewMapper IndexStats = %+v", ms)
	}
}

func TestRefIndexConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(79, 0))
	refLetters := alphabetDecode(seq.Genome(rng, seq.DefaultGenomeConfig(2000)))
	e := newTestEngine(t)

	var kerr *index.KRangeError
	if _, err := e.BuildRefIndex(refLetters, RefIndexConfig{SeedParams: SeedParams{SeedK: 40}}); !errors.As(err, &kerr) {
		t.Errorf("SeedK=40: want KRangeError, got %v", err)
	}
	if _, err := e.BuildRefIndex(refLetters, RefIndexConfig{Backend: "btree"}); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := e.BuildRefIndex(refLetters, RefIndexConfig{Backend: IndexHash, SeedParams: SeedParams{MinimizerW: 4}}); err == nil {
		t.Error("hash backend with MinimizerW accepted")
	}
	if _, err := e.BuildRefIndex(refLetters, RefIndexConfig{Backend: IndexSuffixArray, SeedParams: SeedParams{MinimizerW: 4}}); err == nil {
		t.Error("suffix-array backend with MinimizerW accepted")
	}
	if _, err := newTestEngine(t, WithAlphabet(Protein)).BuildRefIndex(refLetters, RefIndexConfig{}); err == nil {
		t.Error("protein engine should refuse BuildRefIndex")
	}

	built, err := e.BuildRefIndex(refLetters, RefIndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.NewMapperFromIndex(built, MapperConfig{SeedParams: SeedParams{SeedK: 13}}); err == nil {
		t.Error("NewMapperFromIndex should reject explicit SeedK")
	}
	if _, err := newTestEngine(t, WithAlphabet(Protein)).NewMapperFromIndex(built, MapperConfig{}); err == nil {
		t.Error("protein engine should refuse NewMapperFromIndex")
	}
	// Close on a built index is a no-op and idempotent.
	if err := built.Close(); err != nil {
		t.Errorf("Close built: %v", err)
	}
	if err := built.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	// MapperConfig.SeedK out of range surfaces the typed error through the
	// classic constructor too.
	if _, err := e.NewMapper(refLetters, MapperConfig{SeedParams: SeedParams{SeedK: 32}}); !errors.As(err, &kerr) {
		t.Errorf("NewMapper SeedK=32: want KRangeError, got %v", err)
	}
}
