package bitvec

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// isSet reports bit i as 0 or 1.
func isSet(v []uint64, i int) uint64 {
	if IsZeroBit(v, i) {
		return 0
	}
	return 1
}

// shiftLeft1 is ShiftLeft1Or with an all-zero mask: a plain shift left by
// one, the part of the Bitap update that carries across words.
func shiftLeft1(dst, src []uint64) {
	ShiftLeft1Or(dst, src, make([]uint64, len(src)))
}

func TestWords(t *testing.T) {
	cases := []struct{ bits, want int }{
		{0, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}, {-5, 0},
	}
	for _, c := range cases {
		if got := Words(c.bits); got != c.want {
			t.Errorf("Words(%d) = %d, want %d", c.bits, got, c.want)
		}
	}
}

func TestFillAndBit(t *testing.T) {
	v := make([]uint64, 3)
	Fill(v, ^uint64(0))
	for i := 0; i < 192; i++ {
		if IsZeroBit(v, i) {
			t.Fatalf("bit %d should be 1 after Fill(ones)", i)
		}
	}
	Fill(v, 0)
	for i := 0; i < 192; i++ {
		if !IsZeroBit(v, i) {
			t.Fatalf("bit %d should be 0 after Fill(0)", i)
		}
	}
}

func TestSetClearBit(t *testing.T) {
	v := make([]uint64, 2)
	Fill(v, ^uint64(0))
	for _, i := range []int{0, 63, 64, 127} {
		if IsZeroBit(v, i) {
			t.Errorf("IsZeroBit(%d) should be false", i)
		}
	}
	ClearBit(v, 64)
	if !IsZeroBit(v, 64) {
		t.Error("bit 64 not cleared")
	}
	if IsZeroBit(v, 63) || IsZeroBit(v, 65) || IsZeroBit(v, 127) {
		t.Error("clearing bit 64 disturbed neighbours")
	}
	ClearBit(v, 64)
	if !IsZeroBit(v, 64) {
		t.Error("clearing a clear bit set it")
	}
}

func TestShiftLeft1CarriesAcrossWords(t *testing.T) {
	v := make([]uint64, 2)
	v[0] = 1 << 63
	shiftLeft1(v, v)
	if !IsZeroBit(v, 63) || IsZeroBit(v, 64) {
		t.Fatalf("carry not propagated: %#x", v)
	}
	// Bit 0 must be zero after a shift.
	Fill(v, ^uint64(0))
	shiftLeft1(v, v)
	if !IsZeroBit(v, 0) {
		t.Fatal("bit 0 should be 0 after shift")
	}
	for i := 1; i < 128; i++ {
		if IsZeroBit(v, i) {
			t.Fatalf("bit %d lost during shift of all-ones", i)
		}
	}
}

func TestShiftLeft1NonAliased(t *testing.T) {
	src := []uint64{0x8000000000000001, 0x1}
	dst := make([]uint64, 2)
	shiftLeft1(dst, src)
	if dst[0] != 0x2 || dst[1] != 0x3 {
		t.Fatalf("got %#x, want [0x2 0x3]", dst)
	}
	// src untouched
	if src[0] != 0x8000000000000001 {
		t.Fatal("src modified")
	}
}

// TestShiftLeft1OrMatchesComposition checks the fused update against a
// word-by-word shift followed by an OR, aliased and not.
func TestShiftLeft1OrMatchesComposition(t *testing.T) {
	f := func(a, b [4]uint64) bool {
		want := make([]uint64, 4)
		carry := uint64(0)
		for i, w := range a {
			want[i] = w<<1 | carry | b[i]
			carry = w >> (WordSize - 1)
		}
		got := make([]uint64, 4)
		ShiftLeft1Or(got, a[:], b[:])
		aliased := a
		ShiftLeft1Or(aliased[:], aliased[:], b[:])
		for i := range got {
			if got[i] != want[i] || aliased[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: shifting left by one moves every bit up one place and clears
// bit 0. We verify bit by bit on random data.
func TestShiftLeft1Property(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(5)
		src := make([]uint64, n)
		for i := range src {
			src[i] = rng.Uint64()
		}
		got := make([]uint64, n)
		shiftLeft1(got, src)
		for i := 0; i < n*64; i++ {
			want := uint64(0)
			if i > 0 {
				want = isSet(src, i-1)
			}
			if isSet(got, i) != want {
				t.Fatalf("trial %d: bit %d = %d, want %d", trial, i, isSet(got, i), want)
			}
		}
	}
}

func BenchmarkShiftLeft1OrWord(b *testing.B) {
	v := make([]uint64, 1)
	Fill(v, 0xDEADBEEF)
	pm := []uint64{0x0F0F0F0F}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ShiftLeft1Or(v, v, pm)
	}
}

func BenchmarkShiftLeft1OrMultiWord(b *testing.B) {
	v := make([]uint64, 157) // ~10 kbp pattern
	Fill(v, 0xDEADBEEF)
	pm := make([]uint64, len(v))
	Fill(pm, 0x0F0F0F0F)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ShiftLeft1Or(v, v, pm)
	}
}
