package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"genasm/internal/alphabet"
	"genasm/internal/cigar"
	"genasm/internal/dp"
)

func enc(s string) []byte { return alphabet.DNA.MustEncode([]byte(s)) }

func mustWS(t testing.TB, cfg Config) *Workspace {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// levenshtein is the reference global edit distance.
func levenshtein(a, b []byte) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j-1]+cost, min(prev[j]+1, cur[j-1]+1))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// mutate applies nSub+nIns+nDel random edits to a copy of s.
func mutate(rng *rand.Rand, s []byte, nSub, nIns, nDel int) []byte {
	out := append([]byte(nil), s...)
	for i := 0; i < nSub && len(out) > 0; i++ {
		p := rng.IntN(len(out))
		out[p] = (out[p] + byte(1+rng.IntN(3))) % 4
	}
	for i := 0; i < nIns; i++ {
		p := rng.IntN(len(out) + 1)
		out = append(out[:p], append([]byte{byte(rng.IntN(4))}, out[p:]...)...)
	}
	for i := 0; i < nDel && len(out) > 1; i++ {
		p := rng.IntN(len(out))
		out = append(out[:p], out[p+1:]...)
	}
	return out
}

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.IntN(4))
	}
	return s
}

// TestPaperFigure6Deletion reproduces Figure 6a: pattern CTGA vs text CGTGA
// aligned at text location 0 is Match, Del, Match, Match, Match.
func TestPaperFigure6Deletion(t *testing.T) {
	w := mustWS(t, Config{})
	aln, err := w.AlignGlobal(enc("CGTGA"), enc("CTGA"))
	if err != nil {
		t.Fatal(err)
	}
	if got := aln.Cigar.String(); got != "1=1D3=" {
		t.Errorf("CIGAR = %s, want 1=1D3=", got)
	}
	if aln.Distance != 1 {
		t.Errorf("Distance = %d, want 1", aln.Distance)
	}
}

// TestPaperFigure6Substitution reproduces Figure 6b: pattern CTGA vs text
// GTGA is Subs, Match, Match, Match.
func TestPaperFigure6Substitution(t *testing.T) {
	w := mustWS(t, Config{})
	aln, err := w.AlignGlobal(enc("GTGA"), enc("CTGA"))
	if err != nil {
		t.Fatal(err)
	}
	if got := aln.Cigar.String(); got != "1X3=" {
		t.Errorf("CIGAR = %s, want 1X3=", got)
	}
}

// TestPaperFigure6Insertion reproduces Figure 6c: pattern CTGA vs text TGA
// is Ins, Match, Match, Match.
func TestPaperFigure6Insertion(t *testing.T) {
	w := mustWS(t, Config{})
	aln, err := w.AlignGlobal(enc("TGA"), enc("CTGA"))
	if err != nil {
		t.Fatal(err)
	}
	if got := aln.Cigar.String(); got != "1I3=" {
		t.Errorf("CIGAR = %s, want 1I3=", got)
	}
}

func TestExactMatch(t *testing.T) {
	w := mustWS(t, Config{})
	s := enc("ACGTACGTACGTACGT")
	aln, err := w.AlignGlobal(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if aln.Distance != 0 || aln.Cigar.String() != "16=" {
		t.Fatalf("got %s dist %d", aln.Cigar, aln.Distance)
	}
}

func TestSemiGlobalLeavesTrailingText(t *testing.T) {
	w := mustWS(t, Config{})
	text := enc("ACGTACGTTTTTTTTT")
	pattern := enc("ACGTACGT")
	aln, err := w.Align(text, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if aln.Distance != 0 {
		t.Fatalf("semi-global distance = %d, want 0", aln.Distance)
	}
	if aln.TextEnd != 8 {
		t.Fatalf("TextEnd = %d, want 8", aln.TextEnd)
	}
	// Global mode must charge the trailing deletions.
	alnG, err := w.AlignGlobal(text, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if alnG.Distance != 8 {
		t.Fatalf("global distance = %d, want 8", alnG.Distance)
	}
	if err := cigar.Validate(alnG.Cigar, pattern, text, true); err != nil {
		t.Fatal(err)
	}
}

// TestLeadingDeletionQuirk reproduces the paper's footnote 4 (Section
// 10.3): with search mode in the first window, a deletion in the first
// character of the alignment is skipped for free and the reported distance
// is one lower than the true edit distance.
func TestLeadingDeletionQuirk(t *testing.T) {
	pattern := enc("ACGTACGTACGT")
	text := append(enc("G"), pattern...) // one leading text char to delete

	ws := mustWS(t, Config{})
	alnS, err := ws.AlignRegion(text, pattern, -1)
	if err != nil {
		t.Fatal(err)
	}
	if alnS.Distance != 0 {
		t.Fatalf("search distance = %d, want 0 (leading deletion skipped)", alnS.Distance)
	}
	if alnS.TextStart != 1 {
		t.Fatalf("TextStart = %d, want 1", alnS.TextStart)
	}

	// Search is a per-call mode: the same workspace aligns globally from
	// the first text letter, charging the leading deletion.
	alnG, err := ws.AlignGlobal(text, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if alnG.Distance != 1 || alnG.TextStart != 0 {
		t.Fatalf("global distance %d from %d, want 1 from 0", alnG.Distance, alnG.TextStart)
	}
}

// TestTrailingInsertionAtTextEnd covers the phantom end-padding: a
// right-to-left Bitap scan cannot natively represent pattern insertions
// past the text end, which would report distance 3 here instead of 1.
func TestTrailingInsertionAtTextEnd(t *testing.T) {
	w := mustWS(t, Config{})
	aln, err := w.AlignGlobal(enc("A"), enc("AC"))
	if err != nil {
		t.Fatal(err)
	}
	if aln.Distance != 1 {
		t.Fatalf("distance = %d (%s), want 1", aln.Distance, aln.Cigar)
	}
	if err := cigar.Validate(aln.Cigar, enc("AC"), enc("A"), true); err != nil {
		t.Fatal(err)
	}
	// Longer trailing run.
	aln, err = w.AlignGlobal(enc("ACGTACGT"), enc("ACGTACGTTTT"))
	if err != nil {
		t.Fatal(err)
	}
	if aln.Distance != 3 {
		t.Fatalf("distance = %d (%s), want 3", aln.Distance, aln.Cigar)
	}
}

func TestGlobalMatchesLevenshteinOnPlantedErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 0))
	w := mustWS(t, Config{})
	exact, total := 0, 0
	for trial := 0; trial < 120; trial++ {
		n := 50 + rng.IntN(400)
		text := randSeq(rng, n)
		// Plant up to ~8% errors.
		e := rng.IntN(max(1, n/12))
		pattern := mutate(rng, text, e/2, e/4, e/4)
		aln, err := w.AlignGlobal(text, pattern)
		if err != nil {
			t.Fatal(err)
		}
		if err := cigar.Validate(aln.Cigar, pattern, text, true); err != nil {
			t.Fatalf("trial %d: invalid CIGAR: %v", trial, err)
		}
		want := levenshtein(pattern, text)
		if aln.Distance < want {
			t.Fatalf("trial %d: distance %d below true distance %d", trial, aln.Distance, want)
		}
		total++
		if aln.Distance == want {
			exact++
		}
	}
	// The windowed traceback is a heuristic; with W=64/O=24 and moderate
	// error rates it should be exact nearly always.
	if ratio := float64(exact) / float64(total); ratio < 0.95 {
		t.Errorf("exact distance ratio %.2f < 0.95 (%d/%d)", ratio, exact, total)
	}
}

func TestGlobalUpperBoundOnRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 3))
	w := mustWS(t, Config{})
	for trial := 0; trial < 60; trial++ {
		a := randSeq(rng, 30+rng.IntN(200))
		b := randSeq(rng, 30+rng.IntN(200))
		aln, err := w.AlignGlobal(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := cigar.Validate(aln.Cigar, b, a, true); err != nil {
			t.Fatalf("trial %d: invalid CIGAR: %v", trial, err)
		}
		if want := levenshtein(a, b); aln.Distance < want {
			t.Fatalf("trial %d: distance %d < true %d", trial, aln.Distance, want)
		}
	}
}

func TestLongReadAlignment(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 1))
	w := mustWS(t, Config{})
	ref := randSeq(rng, 12000)
	read := mutate(rng, ref[:10000], 300, 150, 150) // ~6% error long read
	aln, err := w.Align(ref, read)
	if err != nil {
		t.Fatal(err)
	}
	if err := cigar.Validate(aln.Cigar, read, ref[:aln.TextEnd], false); err != nil {
		t.Fatal(err)
	}
	if aln.Distance > 900 {
		t.Fatalf("distance %d unreasonably high for ~600 planted edits", aln.Distance)
	}
	if aln.Windows < 10000/(DefaultWindowSize-DefaultOverlap)-1 {
		t.Fatalf("suspiciously few windows: %d", aln.Windows)
	}
}

func TestWindowBoundaryLengths(t *testing.T) {
	w := mustWS(t, Config{})
	rng := rand.New(rand.NewPCG(4, 4))
	// Lengths straddling W and W-O multiples.
	for _, n := range []int{1, 2, 39, 40, 41, 63, 64, 65, 80, 104, 128, 129, 200} {
		text := randSeq(rng, n)
		pattern := append([]byte(nil), text...)
		aln, err := w.AlignGlobal(text, pattern)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if aln.Distance != 0 {
			t.Errorf("n=%d: identical pair distance %d", n, aln.Distance)
		}
	}
}

func TestEmptyPatternRejected(t *testing.T) {
	w := mustWS(t, Config{})
	if _, err := w.Align(enc("ACGT"), nil); err == nil {
		t.Fatal("empty pattern should error")
	}
}

func TestEmptyTextAllInsertions(t *testing.T) {
	w := mustWS(t, Config{})
	aln, err := w.AlignGlobal(nil, enc("ACGT"))
	if err != nil {
		t.Fatal(err)
	}
	if aln.Cigar.String() != "4I" || aln.Distance != 4 {
		t.Fatalf("got %s dist %d", aln.Cigar, aln.Distance)
	}
}

// TestWindowBudgetError pins that no window runs out of error levels: a
// completely dissimilar pair, whose window distance is the pattern
// length, aligns with no error as all substitutions.
func TestWindowBudgetError(t *testing.T) {
	w := mustWS(t, Config{})
	text := enc("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA")
	pattern := enc("CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC")
	aln, err := w.AlignGlobal(text, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if aln.Cigar.String() != "32X" || aln.Distance != 32 {
		t.Fatalf("got %s distance %d, want 32X distance 32", aln.Cigar, aln.Distance)
	}
}

func TestMultiWordWindowConfig(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 2))
	w := mustWS(t, Config{WindowSize: 128, Overlap: 48})
	exact := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		n := 100 + rng.IntN(400)
		text := randSeq(rng, n)
		e := rng.IntN(max(1, n/12))
		pattern := mutate(rng, text, e/2, e/4, e/4)
		aln, err := w.AlignGlobal(text, pattern)
		if err != nil {
			t.Fatal(err)
		}
		if err := cigar.Validate(aln.Cigar, pattern, text, true); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if aln.Distance == levenshtein(pattern, text) {
			exact++
		}
	}
	if exact < trials*9/10 {
		t.Errorf("W=128 exact ratio %d/%d too low", exact, trials)
	}
}

func TestOrdersProduceValidAlignments(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 1))
	for _, order := range []Order{OrderSubFirst, OrderGapFirst, OrderDelFirst} {
		w := mustWS(t, Config{Order: order})
		for trial := 0; trial < 20; trial++ {
			n := 60 + rng.IntN(150)
			text := randSeq(rng, n)
			pattern := mutate(rng, text, 3, 2, 2)
			aln, err := w.AlignGlobal(text, pattern)
			if err != nil {
				t.Fatalf("order %d: %v", order, err)
			}
			if err := cigar.Validate(aln.Cigar, pattern, text, true); err != nil {
				t.Fatalf("order %d trial %d: %v", order, trial, err)
			}
		}
	}
}

// TestAffineExtendPrefersLongGaps checks the gap-extend priority: a long
// deletion should come out as one run rather than interleaved ops.
func TestAffineExtendPrefersLongGaps(t *testing.T) {
	w := mustWS(t, Config{})
	// text has 5 extra chars in the middle.
	pattern := enc("ACGTACGTACGTACGTACGT")
	text := append(append(append([]byte(nil), pattern[:10]...), enc("GGGGG")...), pattern[10:]...)
	aln, err := w.AlignGlobal(text, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if err := cigar.Validate(aln.Cigar, pattern, text, true); err != nil {
		t.Fatal(err)
	}
	if aln.Distance != 5 {
		t.Fatalf("distance = %d, want 5", aln.Distance)
	}
	// Expect exactly one deletion run of length 5.
	delRuns := 0
	for _, r := range aln.Cigar {
		if r.Op == cigar.OpDel {
			delRuns++
			if r.Len != 5 {
				t.Errorf("deletion run length %d, want 5", r.Len)
			}
		}
	}
	if delRuns != 1 {
		t.Errorf("deletion runs = %d, want 1 (%s)", delRuns, aln.Cigar)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{WindowSize: 1},
		{WindowSize: 64, Overlap: 64},
		{WindowSize: 64, Overlap: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
	// MustNew panics on bad config.
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic")
		}
	}()
	MustNew(Config{WindowSize: 1})
}

func TestProteinAlphabetAlignment(t *testing.T) {
	w := mustWS(t, Config{Alphabet: alphabet.Protein})
	a := alphabet.Protein.MustEncode([]byte("MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"))
	b := alphabet.Protein.MustEncode([]byte("MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"))
	b[5] = (b[5] + 1) % 20
	aln, err := w.AlignGlobal(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if aln.Distance != 1 {
		t.Fatalf("protein distance = %d, want 1", aln.Distance)
	}
}

func TestEditDistanceHelper(t *testing.T) {
	w := mustWS(t, Config{})
	d, err := w.EditDistance(enc("ACGTACGT"), enc("ACGAACGT"))
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("EditDistance = %d, want 1", d)
	}
}

func BenchmarkAlignShortRead100bp(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	w := mustWS(b, Config{})
	ref := randSeq(rng, 120)
	read := mutate(rng, ref[:100], 3, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Align(ref, read); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlignLongRead10kbp(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	w := mustWS(b, Config{})
	ref := randSeq(rng, 11500)
	read := mutate(rng, ref[:10000], 500, 250, 250)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Align(ref, read); err != nil {
			b.Fatal(err)
		}
	}
}

// TestValidateCodesEveryByte pins validateCodes's word-at-a-time check to
// the per-byte rule: every byte value at every offset mod 8 (and in the
// tail past the last full word) is accepted exactly when it is a code of
// the alphabet, and the error names the first invalid code and its
// position. A second invalid byte after the first must not be reported.
func TestValidateCodesEveryByte(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	for _, a := range []*alphabet.Alphabet{alphabet.DNA, alphabet.Protein, alphabet.Bytes} {
		w := mustWS(t, Config{Alphabet: a})
		s := make([]byte, 21)
		for off := range s {
			for v := range 256 {
				for i := range s {
					s[i] = byte(rng.IntN(a.Size()))
				}
				s[off] = byte(v)
				if off+3 < len(s) {
					s[off+3] = 255
				}
				var want string
				for i, c := range s {
					if int(c) >= a.Size() {
						want = fmt.Sprintf("code %d at position %d outside %s alphabet (size %d); encode inputs with alphabet.Encode", c, i, a.Name(), a.Size())
						break
					}
				}
				var got string
				if err := w.validateCodes(s); err != nil {
					got = err.Error()
				}
				if got != want {
					t.Fatalf("%s: byte %d at offset %d: got %q, want %q", a.Name(), v, off, got, want)
				}
			}
		}
	}
}

// TestSearchWindowFindsLateStart pins the first search window's 2W text
// span: a read anchored 7–18 bp early sits 23–34 letters into a region
// that starts 16 bp before its anchor, so the window's 64 pattern letters
// need more than W text letters after the start. Every such start must
// align at the dp fit optimum, from the true start.
func TestSearchWindowFindsLateStart(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 1))
	ws := mustWS(t, Config{})
	for lead := 23; lead <= 34; lead++ {
		ref := randSeq(rng, 400)
		text := append(randSeq(rng, lead), ref...)
		// Substitutions only, spaced apart, and three letters inserted
		// after the first 20: the insertion is what shifts a seed's
		// anchor before the true start.
		pattern := slices.Concat(ref[:20], randSeq(rng, 3), ref[20:300])
		for i := 40; i < len(pattern); i += 37 {
			pattern[i] = (pattern[i] + 1) % 4
		}
		aln, err := ws.AlignRegion(text, pattern, -1)
		if err != nil {
			t.Fatal(err)
		}
		opt := -dp.Align(text, pattern, cigar.Unit, dp.Fit, 0).Score
		if aln.Distance != opt || aln.TextStart != lead {
			t.Errorf("start %d letters in: distance %d from %d, want the dp optimum %d from %d (%s)",
				lead, aln.Distance, aln.TextStart, opt, lead, aln.Cigar)
		}
	}
}
