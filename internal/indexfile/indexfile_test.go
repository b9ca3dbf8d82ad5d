package indexfile

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"genasm/internal/index"
	"genasm/internal/seq"
)

func testRef(n int, seed uint64) []byte {
	return seq.Random(rand.New(rand.NewPCG(seed, 0)), n)
}

// buildTable builds the seed table over ref: every k-mer when w is 0,
// window minimizers otherwise.
func buildTable(t *testing.T, ref []byte, k, w int) *index.Index {
	t.Helper()
	var idx *index.Index
	var err error
	if w > 0 {
		idx, err = index.BuildMinimizer(ref, k, w)
	} else {
		idx, err = index.Build(ref, k)
	}
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// sameCandidates checks two indexes agree on candidate lists over a fuzzed
// read mix: exact slices, mutated slices, and random reads with invalid
// codes. got's fused pass must also give want's candidates for the read's
// reverse complement.
func sameCandidates(t *testing.T, want, got *index.Index, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 1))
	ref := want.Ref()
	var ws, gs, wrc, grc index.SeedScratch
	for trial := 0; trial < 50; trial++ {
		var read []byte
		switch trial % 3 {
		case 0:
			p := rng.IntN(len(ref) - 120)
			read = ref[p : p+120]
		case 1:
			p := rng.IntN(len(ref) - 120)
			read = append([]byte(nil), ref[p:p+120]...)
			for e := 0; e < 6; e++ {
				q := rng.IntN(len(read))
				read[q] = (read[q] + byte(1+rng.IntN(3))) % 4
			}
		default:
			read = seq.Random(rng, 90)
			read[rng.IntN(len(read))] = 7
		}
		w := want.CandidateLocationsInto(&ws, read, 0, nil)
		g := got.CandidateLocationsInto(&gs, read, 0, &grc)
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("trial %d: candidates diverge\nbuilt:  %v\nloaded: %v", trial, w, g)
		}
		w = want.CandidateLocationsInto(&wrc, seq.ReverseComplement(read), 0, nil)
		if g := grc.Rank(0); !slices.Equal(w, g) {
			t.Fatalf("trial %d: reverse candidates diverge\nbuilt:  %v\nloaded: %v", trial, w, g)
		}
	}
}

func TestRoundTripAllBackends(t *testing.T) {
	ref := testRef(30000, 21)
	for _, tc := range []struct {
		backend string
		w       int
	}{{index.BackendHash, 0}, {index.BackendMinimizer, 8}} {
		t.Run(tc.backend, func(t *testing.T) {
			built := buildTable(t, ref, 13, tc.w)
			path := filepath.Join(t.TempDir(), "ref.gidx")
			if err := WriteFile(path, built, "chr_test"); err != nil {
				t.Fatal(err)
			}

			for _, load := range []struct {
				name string
				fn   func(string) (*File, error)
			}{{"mmap", Load}, {"ram", LoadInMemory}} {
				t.Run(load.name, func(t *testing.T) {
					f, err := load.fn(path)
					if err != nil {
						t.Fatal(err)
					}
					defer f.Close()

					if st := f.Index.Stats(); st.Backend != tc.backend || f.Info.RefName != "chr_test" ||
						st.K != 13 || st.RefLen != len(ref) {
						t.Errorf("info = %+v, stats %+v", f.Info, st)
					}
					if f.Info.RefDigest != RefDigest(ref) {
						t.Errorf("digest %#x, want %#x", f.Info.RefDigest, RefDigest(ref))
					}
					bs, ls := built.Stats(), f.Index.Stats()
					if ls.Backend != bs.Backend || ls.K != bs.K || ls.MinimizerW != bs.MinimizerW ||
						ls.RefLen != bs.RefLen || ls.Seeds != bs.Seeds {
						t.Errorf("stats: built %+v, loaded %+v", bs, ls)
					}
					if !bytes.Equal(f.Index.Ref(), ref) {
						t.Error("loaded reference differs")
					}
					sameCandidates(t, built, f.Index, 22)
				})
			}
		})
	}
}

// TestRewriteLoadedIndex checks Write accepts a loaded index too: the flat
// form round-trips to an identical file.
func TestRewriteLoadedIndex(t *testing.T) {
	ref := testRef(5000, 23)
	built := buildTable(t, ref, 11, 0)
	var first bytes.Buffer
	if err := Write(&first, built, "rw"); err != nil {
		t.Fatal(err)
	}
	f, err := Decode(first.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := Write(&second, f.Index, "rw"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("re-serialized index differs from original file")
	}
}

func TestWriteFileTruncatesExisting(t *testing.T) {
	ref := testRef(2000, 24)
	big := buildTable(t, ref, 11, 0)
	small := buildTable(t, ref[:500], 11, 4)
	path := filepath.Join(t.TempDir(), "ref.gidx")
	if err := WriteFile(path, big, "x"); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, small, "x"); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatalf("reload after overwrite: %v", err)
	}
	defer f.Close()
	if n := f.Index.Stats().RefLen; n != 500 {
		t.Errorf("RefLen = %d after overwrite", n)
	}
}

// TestCorruptFiles feeds damaged images through Decode: every case must
// return a clean error (of the right class) and never panic.
func TestCorruptFiles(t *testing.T) {
	ref := testRef(3000, 25)
	built := buildTable(t, ref, 11, 0)
	var buf bytes.Buffer
	if err := Write(&buf, built, "corrupt-me"); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// refix returns a copy with one field patched and the trailer CRC
	// recomputed, isolating the field validation from the checksum.
	refix := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		ne.PutUint32(b[len(b)-4:], crc32Of(b[:len(b)-4]))
		return b
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrCorrupt},
		{"header only", good[:headerSize], ErrCorrupt},
		{"bad magic", refix(func(b []byte) { b[0] = 'X' }), ErrFormat},
		{"future version", refix(func(b []byte) { ne.PutUint32(b[8:], Version+1) }), ErrVersion},
		{"foreign byte order", refix(func(b []byte) { ne.PutUint32(b[12:], 0x04030201) }), ErrVersion},
		{"unknown backend", refix(func(b []byte) { ne.PutUint32(b[16:], 99) }), ErrCorrupt},
		{"k zero", refix(func(b []byte) { ne.PutUint32(b[20:], 0) }), ErrCorrupt},
		{"k too large", refix(func(b []byte) { ne.PutUint32(b[20:], index.MaxK+1) }), ErrCorrupt},
		{"hash with window", refix(func(b []byte) { ne.PutUint32(b[24:], 5) }), ErrCorrupt},
		{"huge name", refix(func(b []byte) { ne.PutUint32(b[28:], 1<<30) }), ErrCorrupt},
		{"reflen larger than file", refix(func(b []byte) { ne.PutUint64(b[32:], 1<<32) }), ErrCorrupt},
		{"more entries than bases", refix(func(b []byte) { ne.PutUint64(b[40:], 1<<20) }), ErrCorrupt},
		{"directory too wide", refix(func(b []byte) { ne.PutUint32(b[64:], 23) }), ErrCorrupt},
		{"directory one bit narrower", refix(func(b []byte) { ne.PutUint32(b[64:], ne.Uint32(b[64:])-1) }), ErrCorrupt},
		{"wrong digest", refix(func(b []byte) { ne.PutUint64(b[56:], 0xdeadbeef) }), ErrCorrupt},
		{"flipped payload byte", func() []byte {
			b := append([]byte(nil), good...)
			b[headerSize+40] ^= 0xff
			return b
		}(), ErrCorrupt},
		{"flipped trailer byte", func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 0xff
			return b
		}(), ErrCorrupt},
	}
	// Truncations at every boundary-ish length plus a sweep.
	for _, n := range []int{1, 7, 8, headerSize - 1, headerSize + 3, len(good) / 2, len(good) - 5, len(good) - 1} {
		cases = append(cases, struct {
			name string
			data []byte
			want error
		}{name: "truncated", data: good[:n], want: ErrCorrupt})
	}

	for _, tc := range cases {
		f, err := Decode(tc.data)
		if err == nil {
			f.Close()
			t.Errorf("%s: Decode accepted damaged input", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want class %v", tc.name, err, tc.want)
		}
	}
}

func crc32Of(b []byte) uint32 {
	return crc32.Checksum(b, crcTable)
}

// TestLoadMissingFile pins the pass-through of filesystem errors.
func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.gidx")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("err = %v, want not-exist", err)
	}
	if _, err := LoadInMemory(filepath.Join(t.TempDir(), "absent.gidx")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("err = %v, want not-exist", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	ref := testRef(1000, 26)
	built := buildTable(t, ref, 11, 0)
	path := filepath.Join(t.TempDir(), "ref.gidx")
	if err := WriteFile(path, built, "c"); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestRefNameEdge covers empty and maximum-length names.
func TestRefNameEdge(t *testing.T) {
	ref := testRef(1000, 27)
	built := buildTable(t, ref, 11, 0)
	long := string(bytes.Repeat([]byte("n"), maxRefNameLen))

	var buf bytes.Buffer
	if err := Write(&buf, built, ""); err != nil {
		t.Fatal(err)
	}
	f, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.Info.RefName != "" {
		t.Errorf("RefName = %q, want empty", f.Info.RefName)
	}

	buf.Reset()
	if err := Write(&buf, built, long); err != nil {
		t.Fatal(err)
	}
	if f, err = Decode(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if f.Info.RefName != long {
		t.Error("max-length RefName did not round-trip")
	}

	if err := Write(&buf, built, long+"x"); err == nil {
		t.Error("over-long name accepted")
	}
}
