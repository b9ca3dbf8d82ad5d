package cigar

import (
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// genCigar converts raw quick-generated bytes into a well-formed Cigar.
func genCigar(raw []byte) Cigar {
	var b Builder
	for _, x := range raw {
		op := Op(x%4) + 1
		n := int(x>>2)%7 + 1
		b.Append(op, n)
	}
	return b.Cigar()
}

// TestQuickFormatParseRoundTrip: Parse(String(c)) == c for any well-formed
// CIGAR.
func TestQuickFormatParseRoundTrip(t *testing.T) {
	prop := func(raw []byte) bool {
		c := genCigar(raw)
		parsed, err := Parse(c.String())
		if err != nil {
			return false
		}
		return parsed.String() == c.String()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickLengthAccounting: Len == QueryLen + deletions == TextLen +
// insertions for every CIGAR.
func TestQuickLengthAccounting(t *testing.T) {
	prop := func(raw []byte) bool {
		c := genCigar(raw)
		_, _, ins, del := c.Counts()
		return c.Len() == c.QueryLen()+del && c.Len() == c.TextLen()+ins
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickReverseIsInvolution: reversing twice yields the original.
func TestQuickReverseIsInvolution(t *testing.T) {
	prop := func(raw []byte) bool {
		c := genCigar(raw)
		return c.Reverse().Reverse().String() == c.String()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickConcatScoresAdd: for scoring schemes without an affine
// component, score(a ++ b) == score(a) + score(b).
func TestQuickConcatScoresAdd(t *testing.T) {
	linear := Scoring{Match: 2, Mismatch: -3, GapOpen: 0, GapExtend: -2}
	prop := func(rawA, rawB []byte) bool {
		a, b := genCigar(rawA), genCigar(rawB)
		return linear.Score(a.Concat(b)) == linear.Score(a)+linear.Score(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickAffineConcatNeverCheaper: with an affine scheme, concatenation
// can merge boundary gaps and save at most one gap-open penalty, never
// cost more.
func TestQuickAffineConcatNeverCheaper(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for trial := 0; trial < 200; trial++ {
		raw1 := make([]byte, rng.IntN(8))
		raw2 := make([]byte, rng.IntN(8))
		for i := range raw1 {
			raw1[i] = byte(rng.IntN(256))
		}
		for i := range raw2 {
			raw2[i] = byte(rng.IntN(256))
		}
		a, b := genCigar(raw1), genCigar(raw2)
		joined := BWAMEM.Score(a.Concat(b))
		parts := BWAMEM.Score(a) + BWAMEM.Score(b)
		if joined < parts || joined > parts-BWAMEM.GapOpen {
			t.Fatalf("trial %d: joined %d, parts %d", trial, joined, parts)
		}
	}
}

// builderFormat is Format as it was before AppendFormat, kept as a
// test-only oracle: a strings.Builder and strconv.Itoa per run.
func builderFormat(c Cigar, extended bool) string {
	var sb strings.Builder
	if extended {
		for _, r := range c {
			sb.WriteString(strconv.Itoa(r.Len))
			sb.WriteByte(r.Op.Byte())
		}
		return sb.String()
	}
	pendingM := 0
	flush := func() {
		if pendingM > 0 {
			sb.WriteString(strconv.Itoa(pendingM))
			sb.WriteByte('M')
			pendingM = 0
		}
	}
	for _, r := range c {
		switch r.Op {
		case OpMatch, OpSubst:
			pendingM += r.Len
		default:
			flush()
			sb.WriteString(strconv.Itoa(r.Len))
			sb.WriteByte(r.Op.Byte())
		}
	}
	flush()
	return sb.String()
}

// TestQuickFormatMatchesBuilderOracle checks Format and AppendFormat (onto
// an empty and a non-empty prefix) against builderFormat in both modes,
// for random CIGARs whose run lengths span 1 to 10^6 (each digit count,
// the one- and two-digit fast path's edges included) and for the empty
// CIGAR.
func TestQuickFormatMatchesBuilderOracle(t *testing.T) {
	lengths := []int{1, 9, 10, 11, 99, 100, 101, 999, 1000, 65535, 999_999, 1_000_000}
	rng := rand.New(rand.NewPCG(24, 3))
	check := func(c Cigar) bool {
		for _, extended := range []bool{true, false} {
			want := builderFormat(c, extended)
			if got := c.Format(extended); got != want {
				t.Errorf("%v extended=%v: Format %q, oracle %q", []Run(c), extended, got, want)
				return false
			}
			if got := string(c.AppendFormat(nil, extended)); got != want {
				t.Errorf("%v extended=%v: AppendFormat %q, oracle %q", []Run(c), extended, got, want)
				return false
			}
			if got := string(c.AppendFormat([]byte("x\t"), extended)); got != "x\t"+want {
				t.Errorf("%v extended=%v: AppendFormat after a prefix %q, oracle %q", []Run(c), extended, got, want)
				return false
			}
		}
		return true
	}
	check(nil)
	check(Cigar{})
	prop := func(raw []byte) bool {
		c := make(Cigar, len(raw))
		for i, x := range raw {
			n := 1 + rng.IntN(1_000_000)
			switch x >> 2 % 3 {
			case 0:
				n = lengths[rng.IntN(len(lengths))]
			case 1:
				n = 1 + rng.IntN(120)
			}
			c[i] = Run{Len: n, Op: Op(x%4) + 1}
		}
		return check(c)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
