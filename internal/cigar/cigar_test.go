package cigar

import (
	"testing"
)

func TestBuilderMergesRuns(t *testing.T) {
	var b Builder
	b.Add(OpMatch)
	b.Add(OpMatch)
	b.Append(OpMatch, 3)
	b.Add(OpDel)
	b.Append(OpIns, 0) // no-op
	b.Add(OpDel)
	c := b.Cigar()
	if len(c) != 2 {
		t.Fatalf("runs = %d, want 2 (%v)", len(c), c)
	}
	if c[0] != (Run{5, OpMatch}) || c[1] != (Run{2, OpDel}) {
		t.Fatalf("got %v", c)
	}
}

func TestStringAndFormat(t *testing.T) {
	c := Cigar{{3, OpMatch}, {1, OpSubst}, {2, OpIns}, {4, OpMatch}, {1, OpDel}}
	if got := c.String(); got != "3=1X2I4=1D" {
		t.Errorf("extended = %q", got)
	}
	if got := c.Format(false); got != "4M2I4M1D" {
		t.Errorf("classic = %q", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{"3=1X2I4=1D", "10=", "1I1D1X"} {
		c, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := c.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseClassicM(t *testing.T) {
	c, err := Parse("5M2D")
	if err != nil {
		t.Fatal(err)
	}
	if c[0].Op != OpMatch || c[0].Len != 5 || c[1].Op != OpDel {
		t.Fatalf("got %v", c)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"M", "3", "3Q", "=1"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestCounts(t *testing.T) {
	c := Cigar{{3, OpMatch}, {1, OpSubst}, {2, OpIns}, {4, OpMatch}, {5, OpDel}}
	m, s, i, d := c.Counts()
	if m != 7 || s != 1 || i != 2 || d != 5 {
		t.Fatalf("counts = %d %d %d %d", m, s, i, d)
	}
	if c.EditDistance() != 8 {
		t.Errorf("EditDistance = %d", c.EditDistance())
	}
	if c.Len() != 15 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.QueryLen() != 10 {
		t.Errorf("QueryLen = %d", c.QueryLen())
	}
	if c.TextLen() != 13 {
		t.Errorf("TextLen = %d", c.TextLen())
	}
	if c.Matches() != 7 {
		t.Errorf("Matches = %d", c.Matches())
	}
}

func TestValidateAcceptsCorrectAlignment(t *testing.T) {
	//   query: C TGA
	//   text:  CGTGA (G deleted from query's perspective)
	query := []byte("CTGA")
	text := []byte("CGTGA")
	c, _ := Parse("1=1D3=")
	if err := Validate(c, query, text, true); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsBadOps(t *testing.T) {
	query := []byte("CTGA")
	text := []byte("CGTGA")
	cases := []string{
		"4=",     // wrong: does not match text, also text not consumed
		"1=1X3=", // X over equal chars? C G->T is a real mismatch... actually T!=G so check separately below
		"5=",     // overruns query
		"1=1D2=", // under-consumes query
	}
	for _, s := range cases {
		c, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(c, query, text, true); err == nil {
			t.Errorf("Validate(%q) should fail", s)
		}
	}
}

func TestValidateTextEndFlag(t *testing.T) {
	query := []byte("AC")
	text := []byte("ACGT")
	c, _ := Parse("2=")
	if err := Validate(c, query, text, false); err != nil {
		t.Fatalf("semi-global should pass: %v", err)
	}
	if err := Validate(c, query, text, true); err == nil {
		t.Fatal("global should fail with unconsumed text")
	}
}

func TestScoringBWAMEM(t *testing.T) {
	// 10 matches, 1 substitution, gap of 3 (one open).
	c := Cigar{{10, OpMatch}, {1, OpSubst}, {3, OpIns}}
	got := BWAMEM.Score(c)
	want := 10*1 + 1*(-4) + (-6) + 3*(-1)
	if got != want {
		t.Fatalf("score = %d, want %d", got, want)
	}
}

func TestScoringMinimap2SeparateGaps(t *testing.T) {
	// Two separate 1-char gaps each pay the open penalty.
	c := Cigar{{2, OpMatch}, {1, OpIns}, {2, OpMatch}, {1, OpDel}, {2, OpMatch}}
	got := Minimap2.Score(c)
	want := 6*2 + 2*(-4) + 2*(-2)
	if got != want {
		t.Fatalf("score = %d, want %d", got, want)
	}
}

func TestScoringUnitEqualsNegEditDistance(t *testing.T) {
	c := Cigar{{5, OpMatch}, {2, OpSubst}, {1, OpIns}, {3, OpDel}}
	if got := Unit.Score(c); got != -c.EditDistance() {
		t.Fatalf("unit score %d != -editdist %d", got, -c.EditDistance())
	}
}

func TestReverse(t *testing.T) {
	c := Cigar{{2, OpMatch}, {1, OpIns}, {3, OpMatch}}
	r := c.Reverse()
	if r.String() != "3=1I2=" {
		t.Fatalf("Reverse = %v", r)
	}
	// Reversal merging: runs of same op at the seam.
	c = Cigar{{2, OpMatch}, {1, OpMatch}}
	if r := c.Reverse(); len(r) != 1 || r[0].Len != 3 {
		t.Fatalf("Reverse merge = %v", r)
	}
}

func TestConcat(t *testing.T) {
	a := Cigar{{2, OpMatch}}
	b := Cigar{{3, OpMatch}, {1, OpDel}}
	got := a.Concat(b)
	if got.String() != "5=1D" {
		t.Fatalf("Concat = %v", got)
	}
	if got := (Cigar{}).Concat(b); got.String() != "3=1D" {
		t.Fatalf("empty Concat = %v", got)
	}
	// Original must be untouched.
	if a.String() != "2=" {
		t.Fatalf("Concat mutated receiver: %v", a)
	}
}

func TestOpPredicates(t *testing.T) {
	if OpMatch.IsEdit() || !OpSubst.IsEdit() || !OpIns.IsEdit() || !OpDel.IsEdit() {
		t.Error("IsEdit wrong")
	}
	if !OpIns.ConsumesQuery() || OpIns.ConsumesText() {
		t.Error("Ins consumption wrong")
	}
	if OpDel.ConsumesQuery() || !OpDel.ConsumesText() {
		t.Error("Del consumption wrong")
	}
	if OpNone.Byte() != '?' {
		t.Error("OpNone byte")
	}
}
