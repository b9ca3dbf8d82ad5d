package indexfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"genasm/internal/index"
)

// TestGoldenFiles pins format version 1 byte for byte. The two files in
// testdata were written by the map-based seed table that preceded the
// sorted-array one, with this package's Write:
//
//	ref := testRef(3000, 31)
//	WriteFile("testdata/hash-k11.gidx", index.Build(ref, 11), "golden")
//	WriteFile("testdata/minimizer-k11-w5.gidx", index.BuildMinimizer(ref, 11, 5), "golden")
//
// on a little-endian machine. Writing today's build of the same reference
// must reproduce each file exactly, and loading each file must seed the
// same candidates as the build.
func TestGoldenFiles(t *testing.T) {
	if ne != binary.LittleEndian {
		t.Skip("golden files are little-endian")
	}
	ref := testRef(3000, 31)
	for _, tc := range []struct {
		file  string
		build func() (*index.Index, error)
	}{
		{"hash-k11.gidx", func() (*index.Index, error) { return index.Build(ref, 11) }},
		{"minimizer-k11-w5.gidx", func() (*index.Index, error) { return index.BuildMinimizer(ref, 11, 5) }},
	} {
		t.Run(tc.file, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			built, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Write(&buf, built, "golden"); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Fatalf("Write(build) is %d bytes and differs from the %d-byte golden file", buf.Len(), len(golden))
			}

			f, err := Load(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var bs, ls index.SeedScratch
			for _, start := range []int{0, 517, 1400, 2850} {
				read := ref[start : start+150]
				want := built.CandidateLocationsInto(&bs, read, 0)
				got := f.Index.CandidateLocationsInto(&ls, read, 0)
				if len(want) == 0 || !reflect.DeepEqual(want, got) {
					t.Errorf("read at %d: built %v, loaded %v", start, want, got)
				}
			}
		})
	}
}

// TestRetiredSuffixArrayTag pins the rejection of backend tag 3, which
// earlier releases wrote for suffix-array indexes: a well-formed file
// carrying it is an unsupported version that names the rebuild command,
// not a corrupt file and never a panic.
func TestRetiredSuffixArrayTag(t *testing.T) {
	if ne != binary.LittleEndian {
		t.Skip("golden files are little-endian")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "hash-k11.gidx"))
	if err != nil {
		t.Fatal(err)
	}
	ne.PutUint32(golden[16:], backendRetiredSuffixArray)
	ne.PutUint32(golden[len(golden)-trailerSize:], crc32Of(golden[:len(golden)-trailerSize]))
	path := filepath.Join(t.TempDir(), "sa.gidx")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func() (*File, error){
		"Decode": func() (*File, error) { return Decode(golden) },
		"Load":   func() (*File, error) { return Load(path) },
	} {
		f, err := load()
		if err == nil {
			f.Close()
			t.Fatalf("%s accepted a suffix-array file", name)
		}
		if !errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v, want ErrVersion and not ErrCorrupt", name, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "suffix-array") || !strings.Contains(msg, "genasm index build") {
			t.Errorf("%s: error %q should name the suffix-array backend and the rebuild command", name, msg)
		}
	}
}
