package genasm

import (
	"context"
	"strings"
	"testing"
)

// defaultTestEngine returns the shared DefaultEngine, failing the test if
// it cannot be built.
func defaultTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := DefaultEngine()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAlignerPaperExample(t *testing.T) {
	aln, err := newTestEngine(t).AlignGlobal(context.Background(), []byte("CGTGA"), []byte("CTGA"))
	if err != nil {
		t.Fatal(err)
	}
	if aln.CIGAR != "1=1D3=" {
		t.Errorf("CIGAR = %s, want 1=1D3=", aln.CIGAR)
	}
	if aln.ClassicCIGAR != "1M1D3M" {
		t.Errorf("ClassicCIGAR = %s", aln.ClassicCIGAR)
	}
	if aln.Distance != 1 || aln.Matches != 4 {
		t.Errorf("distance %d matches %d", aln.Distance, aln.Matches)
	}
}

func TestAlignSemiGlobal(t *testing.T) {
	e := newTestEngine(t, WithSearchStart(true))
	aln, err := e.Align(context.Background(), []byte("TTTTACGTACGTTTTT"), []byte("ACGTACGT"))
	if err != nil {
		t.Fatal(err)
	}
	if aln.Distance != 0 {
		t.Fatalf("distance %d, want 0", aln.Distance)
	}
	if aln.TextStart != 4 || aln.TextEnd != 12 {
		t.Fatalf("window [%d,%d), want [4,12)", aln.TextStart, aln.TextEnd)
	}
}

func TestEditDistanceConvenience(t *testing.T) {
	e := defaultTestEngine(t)
	ctx := context.Background()
	d, err := e.EditDistance(ctx, []byte("GATTACA"), []byte("GATTACA"))
	if err != nil || d != 0 {
		t.Fatalf("d=%d err=%v", d, err)
	}
	d, err = e.EditDistance(ctx, []byte("ACGTACGTAC"), []byte("ACGAACGTAC"))
	if err != nil || d != 1 {
		t.Fatalf("d=%d err=%v", d, err)
	}
}

func TestInvalidLetters(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	if _, err := e.Align(ctx, []byte("ACGT"), []byte("ACNG")); err == nil {
		t.Fatal("N should be rejected by the DNA alphabet")
	}
	if _, err := e.Align(ctx, []byte("ACNT"), []byte("ACGG")); err == nil {
		t.Fatal("N in text should be rejected")
	}
}

func TestScoring(t *testing.T) {
	aln, err := newTestEngine(t).AlignGlobal(context.Background(), []byte("ACGTACGTAC"), []byte("ACGTACGTAC"))
	if err != nil {
		t.Fatal(err)
	}
	if got := aln.Score(ScoringBWAMEM); got != 10 {
		t.Errorf("BWA-MEM score = %d, want 10", got)
	}
	if got := aln.Score(ScoringMinimap2); got != 20 {
		t.Errorf("Minimap2 score = %d, want 20", got)
	}
}

func TestProteinAlphabet(t *testing.T) {
	e := newTestEngine(t, WithAlphabet(Protein))
	aln, err := e.AlignGlobal(context.Background(), []byte("MKTAYIAKQR"), []byte("MKTAYIAKQR"))
	if err != nil {
		t.Fatal(err)
	}
	if aln.Distance != 0 {
		t.Fatalf("distance %d", aln.Distance)
	}
	if Protein.String() != "Protein" {
		t.Errorf("alphabet name %s", Protein)
	}
}

func TestGenericTextSearch(t *testing.T) {
	text := []byte("the quick brown fox jumps over the lazy dog")
	matches, err := newTestEngine(t, WithAlphabet(Bytes)).Search(context.Background(), text, []byte("qu1ck"), 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.Pos == strings.Index(string(text), "quick") && m.Distance == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("did not find 'qu1ck' within 1 edit: %v", matches)
	}
	// Ascending order.
	for i := 1; i < len(matches); i++ {
		if matches[i].Pos < matches[i-1].Pos {
			t.Fatal("matches not in ascending position order")
		}
	}
}

func TestDNASearch(t *testing.T) {
	matches, err := defaultTestEngine(t).Search(context.Background(), []byte("ACGTACGTACGT"), []byte("TACG"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 || matches[0].Pos != 3 || matches[1].Pos != 7 {
		t.Fatalf("matches = %v", matches)
	}
}

func TestFilterAPI(t *testing.T) {
	region := []byte("ACGTACGTACGTACGTACGTACGTACGTACGT")
	read := []byte("ACGTACGTACGTACGTACGTACGTACGTACGT")
	e := defaultTestEngine(t)
	ctx := context.Background()
	ok, err := e.Filter(ctx, region, read, 2)
	if err != nil || !ok {
		t.Fatalf("identical pair rejected: ok=%v err=%v", ok, err)
	}
	bad := []byte("TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT")
	ok, err = e.Filter(ctx, region, bad, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("dissimilar pair accepted")
	}
}

func TestAcceleratorModel(t *testing.T) {
	acc, err := NewAccelerator(AcceleratorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := acc.AreaMM2(); got < 10 || got > 11 {
		t.Errorf("area %.2f, want ~10.69", got)
	}
	if got := acc.PowerW(); got < 3 || got > 3.5 {
		t.Errorf("power %.2f, want ~3.23", got)
	}
	long := acc.AlignmentsPerSecond(10000, 0.15)
	if long < 5e5 || long > 1e6 {
		t.Errorf("long-read throughput %.0f/s out of expected band", long)
	}
	short := acc.AlignmentsPerSecond(100, 0.05)
	if short <= long {
		t.Error("short reads must be faster than long reads")
	}
	if acc.AlignmentLatency(10000, 0.15) <= 0 {
		t.Error("latency must be positive")
	}
	// Vault scaling.
	half, err := NewAccelerator(AcceleratorConfig{Vaults: 16})
	if err != nil {
		t.Fatal(err)
	}
	if r := long / half.AlignmentsPerSecond(10000, 0.15); r < 1.99 || r > 2.01 {
		t.Errorf("vault scaling ratio %.2f, want 2.0", r)
	}
}

func TestAcceleratorRejectsBadConfig(t *testing.T) {
	if _, err := NewAccelerator(AcceleratorConfig{FreqHz: -1}); err == nil {
		t.Fatal("negative frequency should fail")
	}
}

func TestGapsBeforeSubstitutionsConfig(t *testing.T) {
	e := newTestEngine(t, WithGapsBeforeSubstitutions(true))
	aln, err := e.AlignGlobal(context.Background(), []byte("ACGTACGT"), []byte("ACGTACGT"))
	if err != nil || aln.Distance != 0 {
		t.Fatalf("aln=%+v err=%v", aln, err)
	}
}
