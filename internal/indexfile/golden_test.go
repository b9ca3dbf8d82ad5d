package indexfile

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
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
