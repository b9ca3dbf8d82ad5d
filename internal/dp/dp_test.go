package dp

import (
	"math/rand/v2"
	"testing"

	"genasm/internal/alphabet"
	"genasm/internal/cigar"
)

func enc(s string) []byte { return alphabet.DNA.MustEncode([]byte(s)) }

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.IntN(4))
	}
	return s
}

func TestEditDistanceBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"ACGT", "ACGT", 0},
		{"ACGT", "", 4},
		{"", "ACGT", 4},
		{"ACGT", "AGGT", 1},
		{"ACGT", "CGT", 1},
		{"ACGT", "ACGTT", 1},
		{"AAAA", "TTTT", 4},
		{"GATTACA", "GCATGCT", 4}, // hmm: classic pair is (kitten,sitting)=3; verified below
	}
	for _, c := range cases {
		if got := EditDistance(enc(c.a), enc(c.b)); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		// Symmetry.
		if got := EditDistance(enc(c.b), enc(c.a)); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.b, c.a, got, c.want)
		}
	}
}

func TestGlobalEditMatchesEditDistance(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 80; trial++ {
		a := randSeq(rng, rng.IntN(120))
		b := randSeq(rng, rng.IntN(120))
		res := Align(a, b, cigar.Unit, Global, 0)
		want := EditDistance(a, b)
		if res.Distance() != want {
			t.Fatalf("trial %d: traceback distance %d, row distance %d", trial, res.Distance(), want)
		}
		if res.Score != -want {
			t.Fatalf("trial %d: score %d, want %d", trial, res.Score, -want)
		}
		if err := cigar.Validate(res.Cigar, b, a, true); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestBandedGlobalEditWideBandExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 40; trial++ {
		a := randSeq(rng, 50+rng.IntN(100))
		b := append([]byte(nil), a...)
		// few edits -> narrow band still exact
		for e := 0; e < 4; e++ {
			p := rng.IntN(len(b))
			b[p] = (b[p] + 1) % 4
		}
		res := Align(a, b, cigar.Unit, Global, 8)
		want := EditDistance(a, b)
		if res.Distance() != want {
			t.Fatalf("trial %d: banded %d, true %d", trial, res.Distance(), want)
		}
		if err := cigar.Validate(res.Cigar, b, a, true); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGlobalAffineKnownCase(t *testing.T) {
	// One gap of 3 vs three gaps of 1: affine must prefer the single gap.
	text := enc("ACGTACGTACGTACGTACGT")
	pattern := append(append([]byte(nil), text[:8]...), text[11:]...) // 3-char deletion
	res := Align(text, pattern, cigar.BWAMEM, Global, 0)
	if err := cigar.Validate(res.Cigar, pattern, text, true); err != nil {
		t.Fatal(err)
	}
	// Expect one 3-long deletion run.
	delRuns, delLen := 0, 0
	for _, r := range res.Cigar {
		if r.Op == cigar.OpDel {
			delRuns++
			delLen += r.Len
		}
	}
	if delRuns != 1 || delLen != 3 {
		t.Fatalf("cigar %s: delRuns=%d delLen=%d", res.Cigar, delRuns, delLen)
	}
	wantScore := 17*1 + (-6) + 3*(-1)
	if res.Score != wantScore {
		t.Fatalf("score %d, want %d", res.Score, wantScore)
	}
	// Score must agree with re-scoring the CIGAR.
	if got := cigar.BWAMEM.Score(res.Cigar); got != res.Score {
		t.Fatalf("cigar rescore %d != %d", got, res.Score)
	}
}

func TestAffineScoreConsistency(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for trial := 0; trial < 60; trial++ {
		a := randSeq(rng, 20+rng.IntN(80))
		b := randSeq(rng, 20+rng.IntN(80))
		for _, sc := range []cigar.Scoring{cigar.BWAMEM, cigar.Minimap2, cigar.Unit} {
			res := Align(a, b, sc, Global, 0)
			if err := cigar.Validate(res.Cigar, b, a, true); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if got := sc.Score(res.Cigar); got != res.Score {
				t.Fatalf("trial %d: DP score %d != cigar score %d (%s)", trial, res.Score, got, res.Cigar)
			}
		}
	}
}

func TestFitMode(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	text := randSeq(rng, 300)
	pattern := append([]byte(nil), text[100:150]...)
	res := Align(text, pattern, cigar.Minimap2, Fit, 0)
	if res.TextStart != 100 || res.TextEnd != 150 {
		t.Fatalf("fit window [%d,%d), want [100,150)", res.TextStart, res.TextEnd)
	}
	if res.Cigar.String() != "50=" {
		t.Fatalf("cigar %s", res.Cigar)
	}
	if err := cigar.Validate(res.Cigar, pattern, text[res.TextStart:res.TextEnd], true); err != nil {
		t.Fatal(err)
	}
	if res.Score != 100 {
		t.Fatalf("score %d, want 100", res.Score)
	}
}

func TestFitModeWithErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	text := randSeq(rng, 500)
	pattern := append([]byte(nil), text[200:300]...)
	pattern[50] = (pattern[50] + 1) % 4
	res := Align(text, pattern, cigar.BWAMEM, Fit, 0)
	if err := cigar.Validate(res.Cigar, pattern, text[res.TextStart:res.TextEnd], true); err != nil {
		t.Fatal(err)
	}
	if res.Distance() != 1 {
		t.Fatalf("distance %d, want 1", res.Distance())
	}
}

func TestLocalMode(t *testing.T) {
	// Shared middle segment; SW must find it.
	rng := rand.New(rand.NewPCG(6, 6))
	shared := randSeq(rng, 40)
	text := append(append(randSeq(rng, 30), shared...), randSeq(rng, 30)...)
	pattern := append(append(randSeq(rng, 20), shared...), randSeq(rng, 20)...)
	res := Align(text, pattern, cigar.Minimap2, Local, 0)
	if res.Score < 40*2 {
		t.Fatalf("local score %d below shared-segment score", res.Score)
	}
	sub := pattern[res.PatternStart:res.PatternEnd]
	if err := cigar.Validate(res.Cigar, sub, text[res.TextStart:res.TextEnd], true); err != nil {
		t.Fatal(err)
	}
}

func TestLocalModeNoPositiveAlignment(t *testing.T) {
	res := Align(enc("AAAA"), enc("TTTT"), cigar.Minimap2, Local, 0)
	if res.Score != 0 || len(res.Cigar) != 0 {
		t.Fatalf("expected empty local alignment, got score %d cigar %s", res.Score, res.Cigar)
	}
}

func TestEmptyInputs(t *testing.T) {
	res := Align(enc("ACG"), nil, cigar.Unit, Global, 0)
	if res.Cigar.String() != "3D" {
		t.Fatalf("empty pattern: %s", res.Cigar)
	}
	res = Align(nil, enc("ACG"), cigar.Unit, Global, 0)
	if res.Cigar.String() != "3I" {
		t.Fatalf("empty text: %s", res.Cigar)
	}
	res = Align(nil, enc("ACG"), cigar.Unit, Local, 0)
	if len(res.Cigar) != 0 {
		t.Fatalf("local with empty text: %s", res.Cigar)
	}
}

func TestHirschbergMatchesGlobalEdit(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 60; trial++ {
		a := randSeq(rng, rng.IntN(200))
		b := randSeq(rng, rng.IntN(200))
		h := Hirschberg(a, b)
		want := EditDistance(a, b)
		if h.Distance() != want {
			t.Fatalf("trial %d: hirschberg %d, true %d", trial, h.Distance(), want)
		}
		if err := cigar.Validate(h.Cigar, b, a, true); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestHirschbergLong(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	a := randSeq(rng, 3000)
	b := append([]byte(nil), a...)
	for e := 0; e < 120; e++ {
		p := rng.IntN(len(b))
		b[p] = (b[p] + 1) % 4
	}
	h := Hirschberg(a, b)
	want := EditDistance(a, b)
	if h.Distance() != want {
		t.Fatalf("hirschberg %d, true %d", h.Distance(), want)
	}
}

func TestBandedFitLongRead(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	text := randSeq(rng, 2400)
	pattern := append([]byte(nil), text[100:2100]...)
	for e := 0; e < 60; e++ {
		p := rng.IntN(len(pattern))
		pattern[p] = (pattern[p] + 1) % 4
	}
	res := Align(text, pattern, cigar.Minimap2, Fit, 200)
	if err := cigar.Validate(res.Cigar, pattern, text[res.TextStart:res.TextEnd], true); err != nil {
		t.Fatal(err)
	}
	if res.Distance() > 70 {
		t.Fatalf("banded fit distance %d for 60 planted subs", res.Distance())
	}
}

func TestGATTACA(t *testing.T) {
	// Known distance: GATTACA vs GCATGCU... use classic kitten/sitting on
	// the byte alphabet instead.
	k := alphabet.Bytes.MustEncode([]byte("kitten"))
	s := alphabet.Bytes.MustEncode([]byte("sitting"))
	if got := EditDistance(k, s); got != 3 {
		t.Fatalf("kitten/sitting = %d, want 3", got)
	}
}

func BenchmarkGlobalEdit250(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	x := randSeq(rng, 250)
	y := randSeq(rng, 250)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Align(x, y, cigar.Unit, Global, 0)
	}
}

func BenchmarkBandedAffineFit10k(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	text := randSeq(rng, 11500)
	pattern := append([]byte(nil), text[:10000]...)
	for e := 0; e < 1000; e++ {
		p := rng.IntN(len(pattern))
		pattern[p] = (pattern[p] + 1) % 4
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Align(text, pattern, cigar.Minimap2, Fit, 1600)
	}
}
