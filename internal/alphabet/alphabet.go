// Package alphabet defines the character alphabets GenASM operates over and
// the pattern-bitmask pre-processing step of the Bitap family (Algorithm 1,
// line 4 of the paper).
//
// The paper evaluates DNA (A, C, G, T) but Section 11 notes that generic
// text search only requires generating bitmasks for a larger alphabet; this
// package therefore supports DNA, RNA, the 20 amino acids, and raw bytes.
package alphabet

import (
	"encoding/binary"
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
	// Word0 holds word 0 of each letter's mask by code: one load where
	// Masks loads a slice header first (GenASM-DC's per-position path).
	Word0 []uint64
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
	nw := max(bitvec.Words(len(pattern)), 1) // keep masks indexable for empty patterns
	pm := &PatternMasks{Words: nw, Masks: make([][]uint64, a.Size()), Word0: make([]uint64, a.Size())}
	flat := make([]uint64, a.Size()*nw)
	for code := range pm.Masks {
		pm.Masks[code] = flat[code*nw : (code+1)*nw]
	}
	pm.fill(pattern)
	return pm
}

// GenerateInto regenerates masks in place for a new pattern, reusing the
// receiver's storage when the alphabet size and word count allow. It is the
// allocation-free variant used by the windowed GenASM-DC inner loop, where a
// fresh sub-pattern mask set is needed per window.
func (pm *PatternMasks) GenerateInto(a *Alphabet, pattern []byte) {
	if len(pm.Masks) != a.Size() || pm.Words < bitvec.Words(len(pattern)) {
		*pm = *GeneratePatternMasks(a, pattern)
		return
	}
	pm.fill(pattern)
}

// fill computes the masks of pattern, which holds codes of the masks'
// alphabet, into the receiver's storage.
//
// Over an alphabet of at most four letters (DNA, RNA) each mask word is
// built in registers and stored once: the word's letters are shifted into
// two bit planes, one per code bit, and a letter's mask has a 1 wherever
// either plane differs from that letter's code bit. Larger alphabets fill
// every mask with ones and clear one bit per pattern letter.
func (pm *PatternMasks) fill(pattern []byte) {
	m := len(pattern)
	nw := max(bitvec.Words(m), 1)
	pm.M, pm.active = m, nw
	if len(pm.Masks) <= 4 {
		for wi := range nw {
			// Word wi holds bits 64wi.. — pattern positions m-1-64wi down —
			// and the first letter shifted in ends at the highest bit.
			hiEnd := m - 64*wi
			letters := pattern[max(hiEnd-64, 0):hiEnd]
			var lo, hi uint64
			// Eight letters per step: the multiply gathers one bit of each
			// of x's bytes into its top byte, the first letter highest.
			for ; len(letters) >= 8; letters = letters[8:] {
				x := binary.LittleEndian.Uint64(letters)
				lo = lo<<8 | (x&0x0101010101010101)*0x8040201008040201>>56
				hi = hi<<8 | (x>>1&0x0101010101010101)*0x8040201008040201>>56
			}
			for _, c := range letters {
				lo = lo<<1 | uint64(c&1)
				hi = hi<<1 | uint64(c>>1)
			}
			above := ^uint64(0) << uint(min(hiEnd, 64)) // no letter: never a match
			for code, mask := range pm.Masks {
				c := uint64(code)
				mask[wi] = (lo ^ -(c & 1)) | (hi ^ -(c >> 1)) | above
			}
		}
	} else {
		for code := range pm.Masks {
			bitvec.Fill(pm.Masks[code][:nw], ^uint64(0))
		}
		for pos, code := range pattern {
			bitvec.ClearBit(pm.Masks[code], m-1-pos)
		}
	}
	for code, mask := range pm.Masks {
		pm.Word0[code] = mask[0]
	}
}

// Mask returns the bitmask for letter code c, sliced to the active words.
func (pm *PatternMasks) Mask(c byte) []uint64 {
	return pm.Masks[c][:pm.active]
}
