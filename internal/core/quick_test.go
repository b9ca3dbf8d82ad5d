package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"genasm/internal/cigar"
	"genasm/internal/dp"
)

// quickSeqs adapts testing/quick's raw values into DNA code sequences of
// bounded length.
func quickSeqs(raw []byte, maxLen int) []byte {
	if len(raw) > maxLen {
		raw = raw[:maxLen]
	}
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = b & 3
	}
	return out
}

// TestQuickGlobalAlignmentInvariants drives AlignGlobal with
// testing/quick-generated pairs and checks the three invariants that make
// the traceback trustworthy: the CIGAR validates against the pair, the
// reported Distance equals the CIGAR's edit count, and the distance never
// undercuts the true Levenshtein distance.
func TestQuickGlobalAlignmentInvariants(t *testing.T) {
	w := mustWS(t, Config{})
	prop := func(rawText, rawPattern []byte) bool {
		text := quickSeqs(rawText, 300)
		pattern := quickSeqs(rawPattern, 300)
		if len(pattern) == 0 {
			return true
		}
		aln, err := w.AlignGlobal(text, pattern)
		if err != nil {
			return false
		}
		if err := cigar.Validate(aln.Cigar, pattern, text, true); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		if aln.Distance != aln.Cigar.EditDistance() {
			return false
		}
		return aln.Distance >= dp.EditDistance(text, pattern)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickSemiGlobalInvariants checks the semi-global mode: the query is
// always fully consumed and the consumed text span matches TextEnd.
func TestQuickSemiGlobalInvariants(t *testing.T) {
	w := mustWS(t, Config{})
	prop := func(rawText, rawPattern []byte) bool {
		text := quickSeqs(rawText, 400)
		pattern := quickSeqs(rawPattern, 200)
		if len(pattern) == 0 {
			return true
		}
		aln, err := w.AlignRegion(text, pattern, -1)
		if err != nil {
			return false
		}
		if aln.Cigar.QueryLen() != len(pattern) {
			return false
		}
		if aln.TextStart < 0 || aln.TextEnd > len(text) || aln.TextStart > aln.TextEnd {
			return false
		}
		if aln.Cigar.TextLen() != aln.TextEnd-aln.TextStart {
			return false
		}
		return cigar.Validate(aln.Cigar, pattern, text[aln.TextStart:aln.TextEnd], true) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickIdenticalPairsAreFree: aligning any sequence to itself is
// distance 0 with an all-match CIGAR.
func TestQuickIdenticalPairsAreFree(t *testing.T) {
	w := mustWS(t, Config{})
	prop := func(raw []byte) bool {
		s := quickSeqs(raw, 500)
		if len(s) == 0 {
			return true
		}
		aln, err := w.AlignGlobal(s, s)
		if err != nil {
			return false
		}
		return aln.Distance == 0 && aln.Cigar.Matches() == len(s)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickDistanceSymmetryApprox: windowed GenASM distance is not exactly
// symmetric (the roles of pattern and text differ), but both directions
// must bound the true distance from above and stay close to each other on
// moderate-error pairs.
func TestQuickDistanceSymmetryApprox(t *testing.T) {
	w := mustWS(t, Config{})
	rng := rand.New(rand.NewPCG(999, 1))
	for trial := 0; trial < 40; trial++ {
		n := 50 + rng.IntN(200)
		a := make([]byte, n)
		for i := range a {
			a[i] = byte(rng.IntN(4))
		}
		b := mutate(rng, a, 3, 2, 2)
		dab, err := w.EditDistance(a, b)
		if err != nil {
			t.Fatal(err)
		}
		dba, err := w.EditDistance(b, a)
		if err != nil {
			t.Fatal(err)
		}
		truth := dp.EditDistance(a, b)
		if dab < truth || dba < truth {
			t.Fatalf("trial %d: distances %d/%d below truth %d", trial, dab, dba, truth)
		}
		if diff := dab - dba; diff < -3 || diff > 3 {
			t.Fatalf("trial %d: asymmetric distances %d vs %d (truth %d)", trial, dab, dba, truth)
		}
	}
}
