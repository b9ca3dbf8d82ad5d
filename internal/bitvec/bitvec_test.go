package bitvec

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

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
		if Bit(v, i) != 1 {
			t.Fatalf("bit %d should be 1 after Fill(ones)", i)
		}
	}
	Fill(v, 0)
	for i := 0; i < 192; i++ {
		if Bit(v, i) != 0 {
			t.Fatalf("bit %d should be 0 after Fill(0)", i)
		}
	}
}

func TestSetClearBit(t *testing.T) {
	v := make([]uint64, 2)
	SetBit(v, 0)
	SetBit(v, 63)
	SetBit(v, 64)
	SetBit(v, 127)
	for _, i := range []int{0, 63, 64, 127} {
		if !(Bit(v, i) == 1) {
			t.Errorf("bit %d not set", i)
		}
		if IsZeroBit(v, i) {
			t.Errorf("IsZeroBit(%d) should be false", i)
		}
	}
	ClearBit(v, 64)
	if Bit(v, 64) != 0 {
		t.Error("bit 64 not cleared")
	}
	if Bit(v, 63) != 1 || Bit(v, 127) != 1 {
		t.Error("clearing bit 64 disturbed neighbours")
	}
}

func TestShiftLeft1CarriesAcrossWords(t *testing.T) {
	v := make([]uint64, 2)
	SetBit(v, 63)
	ShiftLeft1(v, v)
	if Bit(v, 63) != 0 || Bit(v, 64) != 1 {
		t.Fatalf("carry not propagated: %s", String(v, 128))
	}
	// Bit 0 must be zero after a shift.
	Fill(v, ^uint64(0))
	ShiftLeft1(v, v)
	if Bit(v, 0) != 0 {
		t.Fatal("bit 0 should be 0 after shift")
	}
	for i := 1; i < 128; i++ {
		if Bit(v, i) != 1 {
			t.Fatalf("bit %d lost during shift of all-ones", i)
		}
	}
}

func TestShiftLeft1NonAliased(t *testing.T) {
	src := []uint64{0x8000000000000001, 0x1}
	dst := make([]uint64, 2)
	ShiftLeft1(dst, src)
	if dst[0] != 0x2 || dst[1] != 0x3 {
		t.Fatalf("got %#x, want [0x2 0x3]", dst)
	}
	// src untouched
	if src[0] != 0x8000000000000001 {
		t.Fatal("src modified")
	}
}

func TestShiftLeft1OrMatchesComposition(t *testing.T) {
	f := func(a, b [4]uint64) bool {
		src := a[:]
		or := b[:]
		want := make([]uint64, 4)
		ShiftLeft1(want, src)
		for i := range want {
			want[i] |= or[i]
		}
		got := make([]uint64, 4)
		ShiftLeft1Or(got, src, or)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountZerosOnes(t *testing.T) {
	v := make([]uint64, 2)
	Fill(v, ^uint64(0))
	ClearBit(v, 3)
	ClearBit(v, 70)
	if got := CountZeros(v, 128); got != 2 {
		t.Errorf("CountZeros(128) = %d, want 2", got)
	}
	if got := CountZeros(v, 64); got != 1 {
		t.Errorf("CountZeros(64) = %d, want 1", got)
	}
	if got := CountZeros(v, 4); got != 1 {
		t.Errorf("CountZeros(4) = %d, want 1", got)
	}
	if got := CountZeros(v, 3); got != 0 {
		t.Errorf("CountZeros(3) = %d, want 0", got)
	}
	if got := CountZeros(v, 0); got != 0 {
		t.Errorf("CountZeros(0) = %d, want 0", got)
	}
}

func TestStringRoundTrip(t *testing.T) {
	const s = "1011010011110000101101001111000010110100111100001011010011110000101" // 67 bits
	v := make([]uint64, Words(len(s)))
	for i, c := range []byte(s) {
		if c == '1' {
			SetBit(v, len(s)-1-i)
		}
	}
	if got := String(v, len(s)); got != s {
		t.Errorf("round trip mismatch:\n got %s\nwant %s", got, s)
	}
}

func TestVectorBasics(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d", v.Len())
	}
	v.Set(129)
	if v.Bit(129) != 1 {
		t.Fatal("Set/Bit failed at high index")
	}
	v.Clear(129)
	if v.Bit(129) != 0 {
		t.Fatal("Clear failed")
	}
	ones := New(65)
	Fill(ones.Words(), ^uint64(0))
	ones.ShiftLeft1()
	if ones.Bit(0) != 0 || ones.Bit(64) != 1 {
		t.Fatal("Vector.ShiftLeft1 wrong")
	}
}

// Property: shifting left by one doubles the vector interpreted as an
// integer (mod 2^n). We verify via a reference big-shift on random data.
func TestShiftLeft1Property(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(5)
		src := make([]uint64, n)
		for i := range src {
			src[i] = rng.Uint64()
		}
		got := make([]uint64, n)
		ShiftLeft1(got, src)
		// Reference: per-bit check.
		for i := 0; i < n*64; i++ {
			want := uint64(0)
			if i > 0 {
				want = Bit(src, i-1)
			}
			if Bit(got, i) != want {
				t.Fatalf("trial %d: bit %d = %d, want %d", trial, i, Bit(got, i), want)
			}
		}
	}
}

func BenchmarkShiftLeft1Word(b *testing.B) {
	v := make([]uint64, 1)
	Fill(v, 0xDEADBEEF)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ShiftLeft1(v, v)
	}
}

func BenchmarkShiftLeft1MultiWord(b *testing.B) {
	v := make([]uint64, 157) // ~10 kbp pattern
	Fill(v, 0xDEADBEEF)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ShiftLeft1(v, v)
	}
}
