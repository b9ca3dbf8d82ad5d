package indexfile

import (
	"bytes"
	"reflect"
	"testing"

	"genasm/internal/index"
)

// FuzzIndexFile drives the format from both directions. The fuzzer's bytes
// pick reference content and parameters for a build → Write → Decode
// round-trip (loaded candidates must match the built index exactly), and
// the same bytes are also fed straight into Decode as a hostile file image
// (must error or decode cleanly, never panic).
func FuzzIndexFile(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 3, 3}, uint8(4), uint8(0))
	f.Add(bytes.Repeat([]byte{1, 0, 2}, 40), uint8(7), uint8(1))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 2, 1}, 30), uint8(11), uint8(5))

	f.Fuzz(func(t *testing.T, raw []byte, kByte, backendByte uint8) {
		// Direction 1: hostile image straight into the decoder.
		if file, err := Decode(raw); err == nil {
			file.Close()
		}

		// Direction 2: round-trip a real index built from the fuzzed bases.
		ref := make([]byte, len(raw))
		for i, b := range raw {
			ref[i] = b & 3
		}
		k := 1 + int(kByte)%index.MaxK
		if len(ref) < k || len(ref) < 2 {
			return
		}
		var built *index.Index
		var err error
		if backendByte%2 == 0 {
			built, err = index.Build(ref, k)
		} else {
			built, err = index.BuildMinimizer(ref, k, 1+int(backendByte)/2)
		}
		if err != nil {
			t.Fatalf("build k=%d on %d bases: %v", k, len(ref), err)
		}

		var buf bytes.Buffer
		if err := Write(&buf, built, "fuzz"); err != nil {
			t.Fatalf("write: %v", err)
		}
		loaded, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("decode of freshly written file: %v", err)
		}
		defer loaded.Close()

		if !bytes.Equal(loaded.Index.Ref(), ref) {
			t.Fatal("reference did not round-trip")
		}
		var bs, ls index.SeedScratch
		read := ref[:min(len(ref), 100)]
		want := built.CandidateLocationsInto(&bs, read, 0)
		got := loaded.Index.CandidateLocationsInto(&ls, read, 0)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("candidates diverge: built %v, loaded %v", want, got)
		}
	})
}
