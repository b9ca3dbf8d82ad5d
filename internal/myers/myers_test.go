package myers

import (
	"math/rand/v2"
	"testing"

	"genasm/internal/alphabet"
	"genasm/internal/cigar"
	"genasm/internal/dp"
)

func enc(s string) []byte { return alphabet.DNA.MustEncode([]byte(s)) }

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.IntN(4))
	}
	return s
}

func TestDistanceBasics(t *testing.T) {
	cases := []struct {
		text, pattern string
		want          int
	}{
		{"ACGT", "ACGT", 0},
		{"ACGT", "AGGT", 1},
		{"ACGT", "ACG", 1},
		{"ACG", "ACGT", 1},
		{"AAAA", "TTTT", 4},
		{"ACGTACGT", "ACGT", 4},
	}
	for _, c := range cases {
		got, err := Distance(enc(c.text), enc(c.pattern), 4)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Distance(%q,%q) = %d, want %d", c.text, c.pattern, got, c.want)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	d, err := Distance(enc("ACGT"), nil, 4)
	if err != nil || d != 4 {
		t.Fatalf("empty pattern: %d %v", d, err)
	}
	d, err = Distance(nil, enc("ACGT"), 4)
	if err != nil || d != 4 {
		t.Fatalf("empty text: %d %v", d, err)
	}
	d, _, err = SemiGlobal(enc("ACGT"), nil, 4)
	if err != nil || d != 0 {
		t.Fatalf("semiglobal empty pattern: %d %v", d, err)
	}
}

func TestInvalidCodes(t *testing.T) {
	if _, err := Distance(enc("ACGT"), []byte{9}, 4); err == nil {
		t.Fatal("pattern code out of alphabet should fail")
	}
	if _, err := Distance([]byte{9}, enc("ACGT"), 4); err == nil {
		t.Fatal("text code out of alphabet should fail")
	}
}

func TestDistanceAgainstDPRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 100; trial++ {
		// Cover word boundaries: pattern lengths around 64 and 128.
		m := []int{1, 5, 63, 64, 65, 127, 128, 129, 200}[rng.IntN(9)]
		n := rng.IntN(300)
		text := randSeq(rng, n)
		pattern := randSeq(rng, m)
		got, err := Distance(text, pattern, 4)
		if err != nil {
			t.Fatal(err)
		}
		if want := dp.EditDistance(text, pattern); got != want {
			t.Fatalf("trial %d (m=%d n=%d): myers %d, dp %d", trial, m, n, got, want)
		}
	}
}

func TestSemiGlobalAgainstDP(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 60; trial++ {
		n := 50 + rng.IntN(200)
		m := 5 + rng.IntN(100)
		text := randSeq(rng, n)
		pattern := randSeq(rng, m)
		if trial%2 == 0 && n > m+10 {
			// Plant a near-copy for small distances.
			copy(pattern, text[10:10+m])
			pattern[m/2] = (pattern[m/2] + 1) % 4
		}
		got, _, err := SemiGlobal(text, pattern, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := semiGlobalDP(text, pattern)
		if got != want {
			t.Fatalf("trial %d: myers %d, dp %d", trial, got, want)
		}
		if fit := -dp.Align(text, pattern, cigar.Unit, dp.Fit, 0).Score; got != fit {
			t.Fatalf("trial %d: myers %d, dp fit alignment %d", trial, got, fit)
		}
	}
}

func semiGlobalDP(text, pattern []byte) int {
	m, n := len(pattern), len(text)
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for i := 1; i <= m; i++ {
		cur[0] = i
		for j := 1; j <= n; j++ {
			cost := 1
			if pattern[i-1] == text[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j-1]+cost, min(prev[j]+1, cur[j-1]+1))
		}
		prev, cur = cur, prev
	}
	best := prev[0]
	for j := 1; j <= n; j++ {
		if prev[j] < best {
			best = prev[j]
		}
	}
	return best
}

func TestSemiGlobalEndPos(t *testing.T) {
	text := enc("TTTTTACGTACGTTTTT")
	pattern := enc("ACGTACGT")
	d, end, err := SemiGlobal(text, pattern, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("distance %d, want 0", d)
	}
	if end != 13 {
		t.Fatalf("end %d, want 13", end)
	}
}

func TestLongSequences(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	a := randSeq(rng, 5000)
	b := append([]byte(nil), a...)
	edits := 0
	for e := 0; e < 200; e++ {
		p := rng.IntN(len(b))
		b[p] = (b[p] + 1) % 4
		edits++
	}
	got, err := Distance(a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := dp.EditDistance(a, b)
	if got != want {
		t.Fatalf("myers %d, dp %d", got, want)
	}
	if got > edits {
		t.Fatalf("distance %d exceeds planted edits %d", got, edits)
	}
}

func TestProteinAlphabet(t *testing.T) {
	a := alphabet.Protein.MustEncode([]byte("MKTAYIAKQR"))
	b := alphabet.Protein.MustEncode([]byte("MKTAYIAKQR"))
	b[3] = (b[3] + 5) % 20
	d, err := Distance(a, b, alphabet.Protein.Size())
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("protein distance %d, want 1", d)
	}
}

func BenchmarkDistance10k(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 4))
	x := randSeq(rng, 10000)
	y := append([]byte(nil), x...)
	for e := 0; e < 500; e++ {
		p := rng.IntN(len(y))
		y[p] = (y[p] + 1) % 4
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Distance(x, y, 4); err != nil {
			b.Fatal(err)
		}
	}
}
