// Package cigar represents alignments as sequences of edit operations and
// provides parsing, formatting, validation and scoring.
//
// Throughout this repository the query (pattern, read) plays the role of
// the SAM query and the text (reference region) the role of the SAM
// reference: an insertion consumes a query character only, a deletion a
// text character only (Section 6 of the paper).
package cigar

import (
	"fmt"
	"slices"
	"strconv"
	"unsafe"
)

// Op is a single alignment operation.
type Op byte

// Alignment operations. Values are chosen to match the paper's traceback
// status codes (Algorithm 2): 1=match, 2=substitution, 3=insertion,
// 4=deletion.
const (
	OpNone  Op = 0
	OpMatch Op = 1 // query char == text char
	OpSubst Op = 2 // mismatch: both consumed, one edit
	OpIns   Op = 3 // query char consumed only
	OpDel   Op = 4 // text char consumed only
)

// Byte returns the canonical single-letter representation. Matches use '='
// and substitutions 'X' (extended CIGAR); Format can also render classic
// 'M' CIGAR where both map to 'M'.
func (op Op) Byte() byte {
	switch op {
	case OpMatch:
		return '='
	case OpSubst:
		return 'X'
	case OpIns:
		return 'I'
	case OpDel:
		return 'D'
	}
	return '?'
}

// String implements fmt.Stringer.
func (op Op) String() string { return string(op.Byte()) }

// IsEdit reports whether the operation counts toward edit distance.
func (op Op) IsEdit() bool { return op == OpSubst || op == OpIns || op == OpDel }

// ConsumesQuery reports whether the op consumes a query character.
func (op Op) ConsumesQuery() bool { return op == OpMatch || op == OpSubst || op == OpIns }

// ConsumesText reports whether the op consumes a text character.
func (op Op) ConsumesText() bool { return op == OpMatch || op == OpSubst || op == OpDel }

// Run is a run-length-encoded stretch of one operation.
type Run struct {
	Len int
	Op  Op
}

// Cigar is an alignment as run-length-encoded operations.
type Cigar []Run

// Clone returns a copy of the CIGAR with its own backing storage. Callers
// that retain a CIGAR produced by an arena-backed Builder (see Builder)
// beyond the builder's next Reset must Clone it first.
func (c Cigar) Clone() Cigar {
	if c == nil {
		return nil
	}
	return append(make(Cigar, 0, len(c)), c...)
}

// CloneInto copies c into dst's storage (growing it only when needed) and
// returns the result — the allocation-free Clone for callers that keep a
// reusable destination buffer across calls. dst must not alias c.
func (c Cigar) CloneInto(dst Cigar) Cigar {
	return append(dst[:0], c...)
}

// Builder accumulates operations one at a time, merging adjacent equal ops.
// The zero value is ready to use.
//
// A Builder is an arena: Reset retains the accumulated run storage, so a
// builder reused across alignments reaches a steady state where appending
// costs zero heap allocations. The flip side is that Cigar returns a view
// of that arena — the result is only valid until the next Reset/Append on
// the same builder, and callers that retain it must Clone it.
type Builder struct {
	runs Cigar
}

// Append adds n repetitions of op.
func (b *Builder) Append(op Op, n int) {
	if n <= 0 {
		return
	}
	if k := len(b.runs); k > 0 && b.runs[k-1].Op == op {
		b.runs[k-1].Len += n
		return
	}
	b.runs = append(b.runs, Run{Len: n, Op: op})
}

// Add adds a single operation.
func (b *Builder) Add(op Op) { b.Append(op, 1) }

// Cigar returns the accumulated alignment as a view of the builder's
// arena: it stays valid only until the builder's next Reset (or further
// appends, which may grow a merged final run or add new ones). Clone the
// result to retain it. The builder may continue to be used afterwards only
// if the result is no longer needed.
func (b *Builder) Cigar() Cigar { return b.runs }

// AppendCigar appends every run of c, merging the boundary run when equal
// — the arena-friendly form of Concat for builders.
func (b *Builder) AppendCigar(c Cigar) {
	for _, r := range c {
		b.Append(r.Op, r.Len)
	}
}

// Reset clears the builder for reuse, retaining storage.
func (b *Builder) Reset() { b.runs = b.runs[:0] }

// Grow makes room for n more runs, so that a builder sized up front
// appends them without reallocating.
func (b *Builder) Grow(n int) { b.runs = slices.Grow(b.runs, n) }

// Len returns the total number of operations.
func (c Cigar) Len() int {
	n := 0
	for _, r := range c {
		n += r.Len
	}
	return n
}

// EditDistance returns the number of edit operations (substitutions,
// insertions, deletions).
func (c Cigar) EditDistance() int {
	n := 0
	for _, r := range c {
		if r.Op.IsEdit() {
			n += r.Len
		}
	}
	return n
}

// Matches returns the number of exact-match operations.
func (c Cigar) Matches() int {
	n := 0
	for _, r := range c {
		if r.Op == OpMatch {
			n += r.Len
		}
	}
	return n
}

// QueryLen returns the number of query characters the alignment consumes.
func (c Cigar) QueryLen() int {
	n := 0
	for _, r := range c {
		if r.Op.ConsumesQuery() {
			n += r.Len
		}
	}
	return n
}

// TextLen returns the number of text characters the alignment consumes.
func (c Cigar) TextLen() int {
	n := 0
	for _, r := range c {
		if r.Op.ConsumesText() {
			n += r.Len
		}
	}
	return n
}

// Counts returns the number of each operation kind.
func (c Cigar) Counts() (match, subst, ins, del int) {
	for _, r := range c {
		switch r.Op {
		case OpMatch:
			match += r.Len
		case OpSubst:
			subst += r.Len
		case OpIns:
			ins += r.Len
		case OpDel:
			del += r.Len
		}
	}
	return
}

// String renders the extended CIGAR (e.g. "10=1X3I2D").
func (c Cigar) String() string { return c.Format(true) }

// Format renders the CIGAR string. With extended=false, matches and
// substitutions are merged into 'M' runs as in classic SAM. The string
// costs one allocation: the rendering goes into an exactly sized buffer
// that the string then keeps.
func (c Cigar) Format(extended bool) string {
	b := c.AppendFormat(make([]byte, 0, c.formatLen(extended)), extended)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// AppendFormat appends the string Format renders to dst and returns the
// extended buffer: the allocation-free form for writers that build their
// output in a reused buffer.
func (c Cigar) AppendFormat(dst []byte, extended bool) []byte {
	if extended {
		for _, r := range c {
			dst = appendRun(dst, r.Len, r.Op.Byte())
		}
		return dst
	}
	// Classic: coalesce = and X into M.
	pendingM := 0
	for _, r := range c {
		if r.Op == OpMatch || r.Op == OpSubst {
			pendingM += r.Len
			continue
		}
		if pendingM > 0 {
			dst = appendRun(dst, pendingM, 'M')
			pendingM = 0
		}
		dst = appendRun(dst, r.Len, r.Op.Byte())
	}
	if pendingM > 0 {
		dst = appendRun(dst, pendingM, 'M')
	}
	return dst
}

// formatLen is the length of the string Format renders.
func (c Cigar) formatLen(extended bool) int {
	n, pendingM := 0, 0
	for _, r := range c {
		if !extended && (r.Op == OpMatch || r.Op == OpSubst) {
			pendingM += r.Len
			continue
		}
		if pendingM > 0 {
			n += runWidth(pendingM)
			pendingM = 0
		}
		n += runWidth(r.Len)
	}
	if pendingM > 0 {
		n += runWidth(pendingM)
	}
	return n
}

// appendRun appends one run's length and op letter, with a fast path for
// the one- and two-digit lengths most runs have.
func appendRun(dst []byte, n int, op byte) []byte {
	switch {
	case uint(n) < 10:
		return append(dst, byte('0'+n), op)
	case uint(n) < 100:
		return append(dst, byte('0'+n/10), byte('0'+n%10), op)
	}
	return append(strconv.AppendInt(dst, int64(n), 10), op)
}

// runWidth is the number of bytes appendRun appends for a length n >= 0
// (a negative length, which no builder makes, only costs Format a regrow).
func runWidth(n int) int {
	w := 2
	for ; n >= 10; n /= 10 {
		w++
	}
	return w
}

// Parse parses an extended or classic CIGAR string. 'M' is accepted and
// parsed as OpMatch (callers that need =/X resolution should re-validate
// against the sequences).
func Parse(s string) (Cigar, error) {
	var c Cigar
	n := 0
	sawDigit := false
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if ch >= '0' && ch <= '9' {
			n = n*10 + int(ch-'0')
			sawDigit = true
			continue
		}
		if !sawDigit {
			return nil, fmt.Errorf("cigar: missing length before %q at %d", ch, i)
		}
		var op Op
		switch ch {
		case '=', 'M':
			op = OpMatch
		case 'X':
			op = OpSubst
		case 'I':
			op = OpIns
		case 'D':
			op = OpDel
		default:
			return nil, fmt.Errorf("cigar: unknown op %q at %d", ch, i)
		}
		c = append(c, Run{Len: n, Op: op})
		n, sawDigit = 0, false
	}
	if sawDigit {
		return nil, fmt.Errorf("cigar: trailing length without op in %q", s)
	}
	return c, nil
}

// Validate replays the alignment against the query and the text and reports
// an error if any operation is inconsistent (a '=' over differing
// characters, an 'X' over equal ones, or consumed lengths that do not
// match the inputs). The text slice should start at the alignment's start
// position. Full consumption of the query is required; requireTextEnd
// additionally requires the text to be fully consumed (global alignment).
//
// This is the central correctness oracle of the repository's tests: a CIGAR
// that validates proves the reported alignment is a real alignment, so the
// reported edit distance is an achievable (upper-bound) distance.
func Validate(c Cigar, query, text []byte, requireTextEnd bool) error {
	qi, ti := 0, 0
	for ri, r := range c {
		for i := 0; i < r.Len; i++ {
			switch r.Op {
			case OpMatch:
				if qi >= len(query) || ti >= len(text) {
					return fmt.Errorf("cigar: run %d '=' overruns (q=%d/%d t=%d/%d)", ri, qi, len(query), ti, len(text))
				}
				if query[qi] != text[ti] {
					return fmt.Errorf("cigar: run %d '=' over differing chars at q=%d t=%d", ri, qi, ti)
				}
				qi++
				ti++
			case OpSubst:
				if qi >= len(query) || ti >= len(text) {
					return fmt.Errorf("cigar: run %d 'X' overruns (q=%d/%d t=%d/%d)", ri, qi, len(query), ti, len(text))
				}
				if query[qi] == text[ti] {
					return fmt.Errorf("cigar: run %d 'X' over equal chars at q=%d t=%d", ri, qi, ti)
				}
				qi++
				ti++
			case OpIns:
				if qi >= len(query) {
					return fmt.Errorf("cigar: run %d 'I' overruns query (q=%d/%d)", ri, qi, len(query))
				}
				qi++
			case OpDel:
				if ti >= len(text) {
					return fmt.Errorf("cigar: run %d 'D' overruns text (t=%d/%d)", ri, ti, len(text))
				}
				ti++
			default:
				return fmt.Errorf("cigar: run %d has invalid op %d", ri, r.Op)
			}
		}
	}
	if qi != len(query) {
		return fmt.Errorf("cigar: consumed %d of %d query chars", qi, len(query))
	}
	if requireTextEnd && ti != len(text) {
		return fmt.Errorf("cigar: consumed %d of %d text chars", ti, len(text))
	}
	return nil
}

// Scoring is an affine-gap alignment scoring scheme. Penalties are stored
// as the (typically negative) score contributions of each event; GapOpen is
// charged once per gap in addition to GapExtend for every gapped character,
// matching the conventions of BWA-MEM and Minimap2 (Section 10.2).
type Scoring struct {
	Match     int // score per exact match (positive)
	Mismatch  int // score per substitution (negative)
	GapOpen   int // additional score for opening a gap (negative)
	GapExtend int // score per gap character (negative)
}

// Standard scoring schemes used by the paper's accuracy analysis
// (Section 10.2).
var (
	// BWAMEM is BWA-MEM's default: match=+1, substitution=-4,
	// gap opening=-6, gap extension=-1.
	BWAMEM = Scoring{Match: 1, Mismatch: -4, GapOpen: -6, GapExtend: -1}
	// Minimap2 is Minimap2's default: match=+2, substitution=-4,
	// gap opening=-4, gap extension=-2.
	Minimap2 = Scoring{Match: 2, Mismatch: -4, GapOpen: -4, GapExtend: -2}
	// Unit scores edit distance: 0 for match, -1 per edit, no affine part.
	Unit = Scoring{Match: 0, Mismatch: -1, GapOpen: 0, GapExtend: -1}
)

// Score computes the alignment score of the CIGAR under the scheme.
func (s Scoring) Score(c Cigar) int {
	score := 0
	var prev Op
	for _, r := range c {
		switch r.Op {
		case OpMatch:
			score += r.Len * s.Match
		case OpSubst:
			score += r.Len * s.Mismatch
		case OpIns, OpDel:
			score += r.Len * s.GapExtend
			if prev != r.Op {
				score += s.GapOpen
			}
		}
		prev = r.Op
	}
	return score
}

// Reverse returns the CIGAR with runs in reverse order (used by DP
// tracebacks that walk from the end of the matrix).
func (c Cigar) Reverse() Cigar {
	out := make(Cigar, len(c))
	for i, r := range c {
		out[len(c)-1-i] = r
	}
	// Merge adjacent equal runs created by the reversal.
	merged := out[:0]
	for _, r := range out {
		if k := len(merged); k > 0 && merged[k-1].Op == r.Op {
			merged[k-1].Len += r.Len
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// Concat appends other to c, merging the boundary runs when equal.
func (c Cigar) Concat(other Cigar) Cigar {
	if len(c) == 0 {
		return append(Cigar(nil), other...)
	}
	out := append(append(Cigar(nil), c...), other...)
	merged := out[:0]
	for _, r := range out {
		if k := len(merged); k > 0 && merged[k-1].Op == r.Op {
			merged[k-1].Len += r.Len
			continue
		}
		merged = append(merged, r)
	}
	return merged
}
