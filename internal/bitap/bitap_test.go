package bitap

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"genasm/internal/alphabet"
)

func enc(s string) []byte { return alphabet.DNA.MustEncode([]byte(s)) }

// TestPaperExample walks the exact example of Figure 3: text CGTGA,
// pattern CTGA, k=1 finds alignments at locations 2, 1 and 0.
func TestPaperExample(t *testing.T) {
	matches, err := Search(alphabet.DNA, enc("CGTGA"), enc("CTGA"), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Match{{Loc: 2, Dist: 1}, {Loc: 1, Dist: 1}, {Loc: 0, Dist: 1}}
	if len(matches) != len(want) {
		t.Fatalf("matches = %v, want %v", matches, want)
	}
	for i := range want {
		if matches[i] != want[i] {
			t.Errorf("match %d = %v, want %v", i, matches[i], want[i])
		}
	}
}

func TestExactMatchK0(t *testing.T) {
	matches, err := Search(alphabet.DNA, enc("ACGTACGTACGT"), enc("TACG"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// TACG occurs at 3 and 7.
	if len(matches) != 2 || matches[0].Loc != 7 || matches[1].Loc != 3 {
		t.Fatalf("matches = %v", matches)
	}
	for _, m := range matches {
		if m.Dist != 0 {
			t.Errorf("dist = %d, want 0", m.Dist)
		}
	}
}

func TestNoMatch(t *testing.T) {
	matches, err := Search(alphabet.DNA, enc("AAAAAAAA"), enc("GGGG"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("unexpected matches %v", matches)
	}
	d, err := Distance(alphabet.DNA, enc("AAAAAAAA"), enc("GGGG"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 { // k+1 sentinel
		t.Fatalf("Distance = %d, want 2 (k+1)", d)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Search(alphabet.DNA, enc("ACGT"), nil, 1); err == nil {
		t.Error("empty pattern should fail")
	}
	long := make([]byte, 65)
	if _, err := Search(alphabet.DNA, enc("ACGT"), long, 1); err != ErrPatternTooLong {
		t.Errorf("want ErrPatternTooLong, got %v", err)
	}
	if _, err := Search(alphabet.DNA, enc("ACGT"), enc("AC"), -1); err == nil {
		t.Error("negative k should fail")
	}
	if _, err := NewMultiWord(alphabet.DNA, nil, 3); err == nil {
		t.Error("NewMultiWord empty pattern should fail")
	}
	if _, err := NewMultiWord(alphabet.DNA, enc("ACGT"), -1); err == nil {
		t.Error("NewMultiWord negative k should fail")
	}
}

func TestSubstitutionDistance(t *testing.T) {
	// One substitution in the middle.
	d, err := Distance(alphabet.DNA, enc("ACGTACGT"), enc("ACCT"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("Distance = %d, want 1", d)
	}
}

// levenshtein is a reference DP for cross-checking: semi-global distance of
// pattern in text (free start and end in text).
func semiGlobalDP(text, pattern []byte) int {
	m, n := len(pattern), len(text)
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	// Row 0: zero cost to start anywhere in text.
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

func TestSingleWordAgainstDP(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	for trial := 0; trial < 100; trial++ {
		n := 20 + rng.IntN(60)
		m := 4 + rng.IntN(20)
		text := make([]byte, n)
		for i := range text {
			text[i] = byte(rng.IntN(4))
		}
		pattern := make([]byte, m)
		for i := range pattern {
			pattern[i] = byte(rng.IntN(4))
		}
		k := m // generous threshold so the true distance is always found
		got, err := Distance(alphabet.DNA, text, pattern, k)
		if err != nil {
			t.Fatal(err)
		}
		want := semiGlobalDP(text, pattern)
		if got != want {
			t.Fatalf("trial %d: bitap=%d dp=%d (text=%v pattern=%v)", trial, got, want, text, pattern)
		}
	}
}

func TestMultiWordMatchesSingleWord(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 50; trial++ {
		n := 40 + rng.IntN(80)
		m := 4 + rng.IntN(50) // still <= 64 so both variants work
		text := make([]byte, n)
		for i := range text {
			text[i] = byte(rng.IntN(4))
		}
		pattern := make([]byte, m)
		for i := range pattern {
			pattern[i] = byte(rng.IntN(4))
		}
		k := 3 + rng.IntN(4)
		single, err := Search(alphabet.DNA, text, pattern, k)
		if err != nil {
			t.Fatal(err)
		}
		mw, err := NewMultiWord(alphabet.DNA, pattern, k)
		if err != nil {
			t.Fatal(err)
		}
		multi := mw.Search(text)
		if len(single) != len(multi) {
			t.Fatalf("trial %d: single %v multi %v", trial, single, multi)
		}
		for i := range single {
			if single[i] != multi[i] {
				t.Fatalf("trial %d match %d: single %v multi %v", trial, i, single[i], multi[i])
			}
		}
	}
}

func TestMultiWordLongPattern(t *testing.T) {
	// Pattern of 150 chars (3 words), planted in a 500-char text with 2 edits.
	rng := rand.New(rand.NewPCG(11, 0))
	text := make([]byte, 500)
	for i := range text {
		text[i] = byte(rng.IntN(4))
	}
	pattern := append([]byte(nil), text[200:350]...)
	// Introduce a substitution and a deletion (remove a char from pattern).
	pattern[10] = (pattern[10] + 1) % 4
	pattern = append(pattern[:70], pattern[71:]...)

	mw, err := NewMultiWord(alphabet.DNA, pattern, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mw.Within(text) {
		t.Fatal("Within at k=1 = true, want false (distance 2)")
	}
	if err := mw.Reset(pattern, 2); err != nil {
		t.Fatal(err)
	}
	if !mw.Within(text) {
		t.Fatal("Within at k=2 = false, want true (distance 2)")
	}
	if mw.PatternLen() != len(pattern) {
		t.Fatalf("PatternLen = %d", mw.PatternLen())
	}
}

func TestMultiWordAgainstDPLong(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	for trial := 0; trial < 20; trial++ {
		n := 150 + rng.IntN(100)
		m := 70 + rng.IntN(80) // beyond one word
		text := make([]byte, n)
		for i := range text {
			text[i] = byte(rng.IntN(4))
		}
		pattern := make([]byte, m)
		for i := range pattern {
			pattern[i] = byte(rng.IntN(4))
		}
		// Plant an approximate copy to keep distances small sometimes.
		if trial%2 == 0 && n > m+10 {
			copy(pattern, text[5:5+m])
			pattern[m/2] = (pattern[m/2] + 1) % 4
		}
		checkWithin(t, fmt.Sprintf("trial %d", trial), alphabet.DNA, text, pattern)
	}
}

// TestDistanceEarlyExitOnExact: an exact occurrence is a hit at every
// threshold, k = 0 included.
func TestDistanceEarlyExitOnExact(t *testing.T) {
	text := enc("ACGTACGTACGT")
	for k := 0; k <= 3; k++ {
		mw, err := NewMultiWord(alphabet.DNA, enc("GTAC"), k)
		if err != nil {
			t.Fatal(err)
		}
		if !mw.Within(text) {
			t.Fatalf("k=%d: Within = false, want true (exact occurrence)", k)
		}
	}
}

// checkWithin compares Within against the semi-global DP at the tight
// thresholds d-1, d and d+1, where d is the true distance: the only
// thresholds at which an early accept or an early reject can be wrong.
func checkWithin(t *testing.T, name string, a *alphabet.Alphabet, text, pattern []byte) {
	t.Helper()
	d := semiGlobalDP(text, pattern)
	for k := max(d-1, 0); k <= d+1; k++ {
		mw, err := NewMultiWord(a, pattern, k)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mw.Within(text), k >= d; got != want {
			t.Fatalf("%s: m=%d n=%d d=%d k=%d: Within = %v, want %v", name, len(pattern), len(text), d, k, got, want)
		}
	}
}

// mutate returns a copy of s with e random substitutions, insertions and
// deletions over an alphabet of size letters.
func mutate(rng *rand.Rand, s []byte, e, size int) []byte {
	out := append([]byte(nil), s...)
	for ; e > 0 && len(out) > 1; e-- {
		p := rng.IntN(len(out))
		switch rng.IntN(3) {
		case 0:
			out[p] = byte((int(out[p]) + 1 + rng.IntN(size-1)) % size)
		case 1:
			out = append(out[:p], append([]byte{byte(rng.IntN(size))}, out[p:]...)...)
		default:
			out = append(out[:p], out[p+1:]...)
		}
	}
	return out
}

func randSeq(rng *rand.Rand, n, size int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.IntN(size))
	}
	return s
}

// TestWithinTightThresholds pins Within's two early exits against the DP at
// k in {d-1, d, d+1}, across the word boundaries of the four-word step and
// the generic step, for occurrences in the middle of the text, at its left
// edge, past its right end (only end padding finds those), and for
// unrelated texts.
func TestWithinTightThresholds(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 15))
	for _, m := range []int{1, 63, 64, 65, 127, 128, 129, 250, 256, 257, 300} {
		e := m/20 + 1
		read := randSeq(rng, m, 4)
		cases := map[string][]byte{
			// The occurrence sits 16 letters in, with trailing slack.
			"middle": append(append(randSeq(rng, 16, 4), mutate(rng, read, e, 4)...), randSeq(rng, e+16, 4)...),
			// The text starts where the occurrence does.
			"left-edge": append(mutate(rng, read, e, 4), randSeq(rng, 20, 4)...),
			// The text ends before the read does: trailing insertions.
			"end-pad":   append(randSeq(rng, 16, 4), read[:m-min(m, e+1)]...),
			"unrelated": randSeq(rng, m+40, 4),
		}
		for name, text := range cases {
			checkWithin(t, fmt.Sprintf("%s m=%d", name, m), alphabet.DNA, text, read)
		}
	}
	// Engine.Filter runs the same scan over any alphabet.
	size := alphabet.Protein.Size()
	read := randSeq(rng, 150, size)
	text := append(append(randSeq(rng, 16, size), mutate(rng, read, 6, size)...), randSeq(rng, 22, size)...)
	checkWithin(t, "protein", alphabet.Protein, text, read)
}

func TestSearchReuseAcrossCalls(t *testing.T) {
	mw, err := NewMultiWord(alphabet.DNA, enc("ACGT"), 1)
	if err != nil {
		t.Fatal(err)
	}
	t1 := enc("ACGTACGT")
	t2 := enc("TTTTTTTT")
	if n := len(mw.Search(t1)); n == 0 {
		t.Fatal("expected matches in t1")
	}
	if n := len(mw.Search(t2)); n != 2 {
		// ACGT vs TTTT-region: distance 3 > k; but "TTTT" vs pattern with k=1:
		// best is 3 subs -> no match... verify zero matches.
		t.Logf("t2 matches: %d", n)
	}
	// State must reset: rerun t1 and get identical results.
	a := mw.Search(t1)
	b := mw.Search(t1)
	if len(a) != len(b) {
		t.Fatalf("reuse changed results: %v vs %v", a, b)
	}
}

func BenchmarkSingleWordSearch100bp(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	text := make([]byte, 120)
	for i := range text {
		text[i] = byte(rng.IntN(4))
	}
	pattern := append([]byte(nil), text[10:74]...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Search(alphabet.DNA, text, pattern, 5); err != nil {
			b.Fatal(err)
		}
	}
}
