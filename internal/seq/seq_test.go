package seq

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"genasm/internal/alphabet"
)

func TestRandomDeterministic(t *testing.T) {
	a := Random(rand.New(rand.NewPCG(1, 2)), 100)
	b := Random(rand.New(rand.NewPCG(1, 2)), 100)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed must give same sequence")
	}
	c := Random(rand.New(rand.NewPCG(3, 4)), 100)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds should differ")
	}
	for _, code := range a {
		if code > 3 {
			t.Fatalf("invalid code %d", code)
		}
	}
}

func TestGenomeRepeats(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	cfg := GenomeConfig{Length: 20000, RepeatFraction: 0.3, RepeatLength: 500, RepeatDivergence: 0}
	g := Genome(rng, cfg)
	if len(g) != 20000 {
		t.Fatalf("length %d", len(g))
	}
	// With exact (undiverged) repeats, at least one 100-mer must occur
	// twice. Count duplicate 100-mers via a map.
	seen := map[string]bool{}
	dup := false
	for i := 0; i+100 <= len(g); i++ {
		k := string(g[i : i+100])
		if seen[k] {
			dup = true
			break
		}
		seen[k] = true
	}
	if !dup {
		t.Error("expected duplicated 100-mers in repeat-rich genome")
	}
	// No-repeat config returns plain random genome of right size.
	g2 := Genome(rand.New(rand.NewPCG(5, 6)), GenomeConfig{Length: 1000})
	if len(g2) != 1000 {
		t.Fatalf("no-repeat length %d", len(g2))
	}
}

func TestDefaultGenomeConfig(t *testing.T) {
	cfg := DefaultGenomeConfig(5000)
	if cfg.Length != 5000 || cfg.RepeatFraction <= 0 || cfg.RepeatLength <= 0 {
		t.Fatalf("bad default config %+v", cfg)
	}
	g := Genome(rand.New(rand.NewPCG(1, 1)), cfg)
	if len(g) != 5000 {
		t.Fatal("wrong length")
	}
}

func TestReverseComplement(t *testing.T) {
	s := alphabet.DNA.MustEncode([]byte("ACGTTGCA"))
	rc := ReverseComplement(s)
	want := alphabet.DNA.MustEncode([]byte("TGCAACGT"))
	if !bytes.Equal(rc, want) {
		t.Fatalf("rc = %v, want %v", rc, want)
	}
	// Involution.
	if !bytes.Equal(ReverseComplement(rc), s) {
		t.Fatal("double reverse complement must be identity")
	}
}

func TestEncodeRecord(t *testing.T) {
	letters := []byte("ACGTN")
	codes := EncodeRecord(letters)
	if len(codes) != 5 {
		t.Fatalf("len = %d", len(codes))
	}
	want := alphabet.DNA.MustEncode([]byte("ACGT"))
	if !bytes.Equal(codes[:4], want) {
		t.Fatalf("ACGT encoded as %v", codes[:4])
	}
	if codes[4] > 3 {
		t.Fatalf("N mapped to invalid code %d", codes[4])
	}
	// Deterministic mapping of ambiguous bases.
	again := EncodeRecord(letters)
	if !bytes.Equal(codes, again) {
		t.Fatal("EncodeRecord must be deterministic")
	}
}
