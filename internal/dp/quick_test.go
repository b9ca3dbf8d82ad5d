package dp

import (
	"testing"
	"testing/quick"

	"genasm/internal/cigar"
)

func clamp(raw []byte, maxLen int) []byte {
	if len(raw) > maxLen {
		raw = raw[:maxLen]
	}
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = b & 3
	}
	return out
}

// TestQuickEditDistanceMetric: symmetry, identity and the triangle
// inequality — edit distance is a metric.
func TestQuickEditDistanceMetric(t *testing.T) {
	sym := func(ra, rb []byte) bool {
		a, b := clamp(ra, 120), clamp(rb, 120)
		return EditDistance(a, b) == EditDistance(b, a)
	}
	if err := quick.Check(sym, &quick.Config{MaxCount: 150}); err != nil {
		t.Error("symmetry:", err)
	}
	ident := func(ra []byte) bool {
		a := clamp(ra, 200)
		return EditDistance(a, a) == 0
	}
	if err := quick.Check(ident, &quick.Config{MaxCount: 100}); err != nil {
		t.Error("identity:", err)
	}
	tri := func(ra, rb, rc []byte) bool {
		a, b, c := clamp(ra, 60), clamp(rb, 60), clamp(rc, 60)
		return EditDistance(a, c) <= EditDistance(a, b)+EditDistance(b, c)
	}
	if err := quick.Check(tri, &quick.Config{MaxCount: 150}); err != nil {
		t.Error("triangle:", err)
	}
}

// TestQuickGlobalEditOptimality: the traceback alignment's distance equals
// the distance-only recurrence and its CIGAR validates.
func TestQuickGlobalEditOptimality(t *testing.T) {
	prop := func(ra, rb []byte) bool {
		a, b := clamp(ra, 100), clamp(rb, 100)
		res := Align(a, b, cigar.Unit, Global, 0)
		if res.Distance() != EditDistance(a, b) {
			return false
		}
		return cigar.Validate(res.Cigar, b, a, true) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickHirschbergAgreesWithDP on arbitrary pairs.
func TestQuickHirschbergAgreesWithDP(t *testing.T) {
	prop := func(ra, rb []byte) bool {
		a, b := clamp(ra, 150), clamp(rb, 150)
		h := Hirschberg(a, b)
		if h.Distance() != EditDistance(a, b) {
			return false
		}
		return cigar.Validate(h.Cigar, b, a, true) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickFitNeverWorseThanGlobal: a fit alignment's score is at least
// the global alignment's (freedom can only help a maximizer).
func TestQuickFitNeverWorseThanGlobal(t *testing.T) {
	prop := func(ra, rb []byte) bool {
		a, b := clamp(ra, 100), clamp(rb, 80)
		if len(b) == 0 {
			return true
		}
		g := Align(a, b, cigar.Minimap2, Global, 0)
		f := Align(a, b, cigar.Minimap2, Fit, 0)
		return f.Score >= g.Score
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickLocalNeverWorseThanFit: local freedom dominates fit freedom.
func TestQuickLocalNeverWorseThanFit(t *testing.T) {
	prop := func(ra, rb []byte) bool {
		a, b := clamp(ra, 100), clamp(rb, 80)
		if len(b) == 0 || len(a) == 0 {
			return true
		}
		f := Align(a, b, cigar.Minimap2, Fit, 0)
		l := Align(a, b, cigar.Minimap2, Local, 0)
		return l.Score >= f.Score
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
