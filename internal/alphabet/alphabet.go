// Package alphabet defines the character alphabets GenASM operates over and
// the pattern-bitmask pre-processing step of the Bitap family (Algorithm 1,
// line 4 of the paper).
//
// The paper evaluates DNA (A, C, G, T) but Section 11 notes that generic
// text search only requires generating bitmasks for a larger alphabet; this
// package therefore supports DNA, RNA, the 20 amino acids, and raw bytes.
package alphabet

import (
	"fmt"
	"slices"

	"genasm/internal/bitvec"
)

// Alphabet maps characters to dense codes in [0, Size).
type Alphabet struct {
	name    string
	codes   [256]int16 // -1 for invalid
	letters []byte     // code -> canonical letter
}

// New builds an Alphabet from the given canonical letters. Lowercase ASCII
// input letters are folded to uppercase at encode time when fold is set.
func New(name string, letters []byte, fold bool) *Alphabet {
	a := &Alphabet{name: name, letters: append([]byte(nil), letters...)}
	for i := range a.codes {
		a.codes[i] = -1
	}
	for code, c := range letters {
		a.codes[c] = int16(code)
		if fold && c >= 'A' && c <= 'Z' {
			a.codes[c+'a'-'A'] = int16(code)
		}
	}
	return a
}

// Predefined alphabets.
var (
	// DNA is the 2-bit encodable {A, C, G, T} alphabet used throughout the
	// paper's evaluation (Section 9: A=00, C=01, G=10, T=11).
	DNA = New("DNA", []byte("ACGT"), true)
	// RNA replaces T with U (Section 11).
	RNA = New("RNA", []byte("ACGU"), true)
	// Protein holds the 20 standard amino acids (Section 11).
	Protein = New("Protein", []byte("ARNDCQEGHILKMFPSTWYV"), true)
)

// Bytes is an alphabet over all 256 byte values, enabling generic text
// search. It is constructed lazily because the letter table is large.
var Bytes = func() *Alphabet {
	letters := make([]byte, 256)
	for i := range letters {
		letters[i] = byte(i)
	}
	return New("Bytes", letters, false)
}()

// Name returns the alphabet's name.
func (a *Alphabet) Name() string { return a.name }

// Size returns the number of letters.
func (a *Alphabet) Size() int { return len(a.letters) }

// Letter returns the canonical letter for a code.
func (a *Alphabet) Letter(code int) byte { return a.letters[code] }

// Code returns the dense code for character c, or -1 if c is not in the
// alphabet.
func (a *Alphabet) Code(c byte) int { return int(a.codes[c]) }

// Valid reports whether every character of s belongs to the alphabet.
func (a *Alphabet) Valid(s []byte) bool {
	for _, c := range s {
		if a.codes[c] < 0 {
			return false
		}
	}
	return true
}

// Encode converts s to dense codes. It returns an error naming the first
// invalid character, if any.
func (a *Alphabet) Encode(s []byte) ([]byte, error) {
	out := make([]byte, len(s))
	for i, c := range s {
		code := a.codes[c]
		if code < 0 {
			return nil, fmt.Errorf("alphabet %s: invalid character %q at position %d", a.name, c, i)
		}
		out[i] = byte(code)
	}
	return out, nil
}

// MustEncode is Encode for inputs known to be valid; it panics otherwise.
func (a *Alphabet) MustEncode(s []byte) []byte {
	out, err := a.Encode(s)
	if err != nil {
		panic(err)
	}
	return out
}

// Decode converts dense codes back to letters.
func (a *Alphabet) Decode(codes []byte) []byte {
	return a.AppendDecode(make([]byte, 0, len(codes)), codes)
}

// AppendDecode appends the letters of codes to dst and returns the
// extended buffer: Decode without the allocation, for writers that build
// their output in a reused buffer.
func (a *Alphabet) AppendDecode(dst, codes []byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, len(codes))[:n+len(codes)]
	out := dst[n:]
	for i, c := range codes {
		out[i] = a.letters[c]
	}
	return dst
}

// PatternMasks holds the Bitap pattern bitmasks PM for one pattern: one
// multi-word bitvector per alphabet letter, where bit j is 0 iff
// pattern[m-1-j] equals the letter (0 means match, as in the paper).
type PatternMasks struct {
	// Masks is indexed by letter code; each entry has Words words.
	Masks [][]uint64
	// M is the pattern length in characters.
	M int
	// Words is the number of 64-bit words per mask.
	Words int
	// active is the word count the current pattern needs (<= Words);
	// Mask slices to it without recomputing ceil(M/64) per call.
	active int
}

// GeneratePatternMasks pre-processes an *encoded* pattern (dense codes, as
// produced by Encode) into per-letter bitmasks. This is
// generatePatternBitmaskACGT from Algorithm 1, generalized to any alphabet
// size and to multi-word masks for long patterns (Section 5, long read
// support).
func GeneratePatternMasks(a *Alphabet, pattern []byte) *PatternMasks {
	m := len(pattern)
	nw := bitvec.Words(m)
	if nw == 0 {
		nw = 1 // keep masks indexable for empty patterns
	}
	pm := &PatternMasks{M: m, Words: nw, active: nw, Masks: make([][]uint64, a.Size())}
	flat := make([]uint64, a.Size()*nw)
	for code := range pm.Masks {
		mask := flat[code*nw : (code+1)*nw]
		bitvec.Fill(mask, ^uint64(0))
		pm.Masks[code] = mask
	}
	for pos, code := range pattern {
		bit := m - 1 - pos
		bitvec.ClearBit(pm.Masks[code], bit)
	}
	return pm
}

// GenerateInto regenerates masks in place for a new pattern, reusing the
// receiver's storage when the alphabet size and word count allow. It is the
// allocation-free variant used by the windowed GenASM-DC inner loop, where a
// fresh sub-pattern mask set is needed per window.
func (pm *PatternMasks) GenerateInto(a *Alphabet, pattern []byte) {
	m := len(pattern)
	nw := bitvec.Words(m)
	if nw == 0 {
		nw = 1
	}
	if len(pm.Masks) != a.Size() || pm.Words < nw {
		*pm = *GeneratePatternMasks(a, pattern)
		return
	}
	pm.M = m
	pm.active = nw
	for code := range pm.Masks {
		bitvec.Fill(pm.Masks[code][:nw], ^uint64(0))
	}
	for pos, code := range pattern {
		bit := m - 1 - pos
		bitvec.ClearBit(pm.Masks[code], bit)
	}
}

// Mask returns the bitmask for letter code c, sliced to the active words.
func (pm *PatternMasks) Mask(c byte) []uint64 {
	return pm.Masks[c][:pm.active]
}

// MaskWord returns word 0 of letter code c's bitmask — the whole mask for
// single-word patterns, read without slice-header construction (the
// traceback's per-step fast path).
func (pm *PatternMasks) MaskWord(c byte) uint64 {
	return pm.Masks[c][0]
}
