package alphabet

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"genasm/internal/bitvec"
)

func TestDNAEncodeDecode(t *testing.T) {
	in := []byte("ACGTacgt")
	codes, err := DNA.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 1, 2, 3, 0, 1, 2, 3}
	if !bytes.Equal(codes, want) {
		t.Fatalf("Encode = %v, want %v", codes, want)
	}
	if got := DNA.Decode(codes); !bytes.Equal(got, []byte("ACGTACGT")) {
		t.Fatalf("Decode = %s", got)
	}
}

func TestEncodeInvalid(t *testing.T) {
	if _, err := DNA.Encode([]byte("ACGN")); err == nil {
		t.Fatal("expected error for N")
	}
	if DNA.Valid([]byte("ACGN")) {
		t.Fatal("Valid should be false for N")
	}
	if !DNA.Valid([]byte("acgt")) {
		t.Fatal("Valid should fold case")
	}
}

func TestAlphabetSizes(t *testing.T) {
	cases := []struct {
		a    *Alphabet
		size int
	}{
		{DNA, 4}, {RNA, 4}, {Protein, 20}, {Bytes, 256},
	}
	for _, c := range cases {
		if c.a.Size() != c.size {
			t.Errorf("%s: Size = %d, want %d", c.a.Name(), c.a.Size(), c.size)
		}
	}
}

func TestCodeLetterRoundTrip(t *testing.T) {
	for code := 0; code < Protein.Size(); code++ {
		l := Protein.Letter(code)
		if Protein.Code(l) != code {
			t.Errorf("Protein letter %q: code %d != %d", l, Protein.Code(l), code)
		}
	}
	if DNA.Code('N') != -1 {
		t.Error("DNA.Code('N') should be -1")
	}
}

// TestPatternMasksPaperExample reproduces the pre-processing step of
// Figure 3: pattern CTGA yields PM(A)=1110, PM(C)=0111, PM(G)=1101,
// PM(T)=1011.
func TestPatternMasksPaperExample(t *testing.T) {
	pattern := DNA.MustEncode([]byte("CTGA"))
	pm := GeneratePatternMasks(DNA, pattern)
	want := map[byte]string{'A': "1110", 'C': "0111", 'G': "1101", 'T': "1011"}
	for letter, bitsWant := range want {
		code := byte(DNA.Code(letter))
		got := maskString(pm.Mask(code), 4)
		if got != bitsWant {
			t.Errorf("PM(%c) = %s, want %s", letter, got, bitsWant)
		}
	}
}

func TestPatternMasksMultiWord(t *testing.T) {
	// 70-char pattern spans two words.
	pattern := make([]byte, 70)
	for i := range pattern {
		pattern[i] = byte(i % 4)
	}
	pm := GeneratePatternMasks(DNA, pattern)
	if pm.Words != 2 {
		t.Fatalf("Words = %d, want 2", pm.Words)
	}
	for pos, code := range pattern {
		bit := len(pattern) - 1 - pos
		for c := byte(0); c < 4; c++ {
			isZero := bitvec.IsZeroBit(pm.Mask(c), bit)
			if (c == code) != isZero {
				t.Fatalf("pos %d letter %d mask %d: zero=%v", pos, code, c, isZero)
			}
		}
	}
}

func TestGenerateIntoReuses(t *testing.T) {
	pm := GeneratePatternMasks(DNA, DNA.MustEncode([]byte("ACGTACGT")))
	before := &pm.Masks[0][0]
	pm.GenerateInto(DNA, DNA.MustEncode([]byte("TTTT")))
	after := &pm.Masks[0][0]
	if before != after {
		t.Fatal("GenerateInto should reuse storage for smaller patterns")
	}
	if pm.M != 4 {
		t.Fatalf("M = %d, want 4", pm.M)
	}
	got := maskString(pm.Mask(byte(DNA.Code('T'))), 4)
	if got != "0000" {
		t.Fatalf("PM(T) = %s, want 0000", got)
	}
	// Growing beyond capacity must still work (falls back to realloc).
	long := make([]byte, 200)
	pm.GenerateInto(DNA, long)
	if pm.M != 200 || pm.Words < bitvec.Words(200) {
		t.Fatalf("GenerateInto grow: M=%d Words=%d", pm.M, pm.Words)
	}
}

// TestGenerateIntoMatchesDefinition checks every mask bit against the
// definition (bit j is 0 iff pattern[m-1-j] is the letter; bits at or
// above m are 1) for random patterns of every length up to 200 over each
// alphabet, regenerated in place over the previous pattern's masks.
func TestGenerateIntoMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	for _, a := range []*Alphabet{DNA, RNA, Protein, Bytes} {
		pm := GeneratePatternMasks(a, make([]byte, 200))
		for m := range 201 {
			pattern := make([]byte, m)
			for i := range pattern {
				pattern[i] = byte(rng.IntN(a.Size()))
			}
			pm.GenerateInto(a, pattern)
			if pm.M != m {
				t.Fatalf("%s m=%d: M = %d", a.Name(), m, pm.M)
			}
			for code := range a.Size() {
				mask := pm.Mask(byte(code))
				if len(mask) != max(bitvec.Words(m), 1) {
					t.Fatalf("%s m=%d: %d active words", a.Name(), m, len(mask))
				}
				for j := range 64 * len(mask) {
					want := j >= m || int(pattern[m-1-j]) != code
					if got := !bitvec.IsZeroBit(mask, j); got != want {
						t.Fatalf("%s m=%d letter %d bit %d: %v, want %v", a.Name(), m, code, j, got, want)
					}
				}
			}
		}
	}
}

func TestBytesAlphabetGenericSearch(t *testing.T) {
	pattern := Bytes.MustEncode([]byte("hello"))
	pm := GeneratePatternMasks(Bytes, pattern)
	// 'l' appears at positions 2 and 3 -> bits 2 and 1 are zero.
	mask := pm.Mask('l')
	if !bitvec.IsZeroBit(mask, 2) || !bitvec.IsZeroBit(mask, 1) {
		t.Fatal("mask for 'l' wrong")
	}
	if bitvec.IsZeroBit(mask, 0) || bitvec.IsZeroBit(mask, 3) || bitvec.IsZeroBit(mask, 4) {
		t.Fatal("mask for 'l' has spurious zeros")
	}
}

func TestEmptyPattern(t *testing.T) {
	pm := GeneratePatternMasks(DNA, nil)
	if pm.M != 0 {
		t.Fatalf("M = %d", pm.M)
	}
	// Masks must stay indexable.
	_ = pm.Mask(0)
}

// BenchmarkGenerateInto regenerates one W=64 window's DNA masks, as
// GenASM-DC does once per window.
func BenchmarkGenerateInto(b *testing.B) {
	pattern := make([]byte, 64)
	for i := range pattern {
		pattern[i] = byte(i*7/3) & 3
	}
	pm := GeneratePatternMasks(DNA, pattern)
	b.ResetTimer()
	for range b.N {
		pm.GenerateInto(DNA, pattern)
	}
}

// maskString renders the first nbits bits of v MSB-first (bit nbits-1
// leftmost), the convention of the paper's worked examples (Figure 3).
func maskString(v []uint64, nbits int) string {
	b := make([]byte, nbits)
	for i := range b {
		b[i] = '1'
		if bitvec.IsZeroBit(v, nbits-1-i) {
			b[i] = '0'
		}
	}
	return string(b)
}
