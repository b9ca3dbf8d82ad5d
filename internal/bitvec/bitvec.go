// Package bitvec provides multi-word bitvector primitives used by the
// Bitap-family algorithms in this repository (baseline Bitap, GenASM-DC and
// GenASM-TB).
//
// A bitvector is a little-endian slice of 64-bit words: bit i of the vector
// lives at bits[i/64] >> (i%64). The GenASM algorithms only ever need a
// handful of operations — fill with ones, shift left by one with carry
// across words, and single-bit reads — so this package exposes exactly
// those as allocation-free functions over []uint64, plus a small
// convenience Vector type for tests.
package bitvec

import (
	"math/bits"
	"strings"
)

// WordSize is the number of bits per machine word used by the vectors.
const WordSize = 64

// Words returns the number of 64-bit words needed to hold nbits bits.
func Words(nbits int) int {
	if nbits <= 0 {
		return 0
	}
	return (nbits + WordSize - 1) / WordSize
}

// Fill sets every word of dst to the given word value (commonly ^uint64(0)
// to initialize Bitap status vectors to all ones).
func Fill(dst []uint64, w uint64) {
	for i := range dst {
		dst[i] = w
	}
}

// Copy copies src into dst. The slices must have equal length.
func Copy(dst, src []uint64) {
	copy(dst, src)
}

// ShiftLeft1 writes (src << 1) into dst, propagating the carry bit across
// word boundaries. Bit 0 of the result is 0. dst and src may alias.
// The slices must have equal length.
func ShiftLeft1(dst, src []uint64) {
	carry := uint64(0)
	for i := range src {
		w := src[i]
		dst[i] = w<<1 | carry
		carry = w >> (WordSize - 1)
	}
}

// ShiftLeft1Or writes (src << 1) | or into dst in a single pass.
// This is the Bitap match-bitvector update: (oldR << 1) | PM[c].
// dst, src and or must have equal length; dst may alias src.
func ShiftLeft1Or(dst, src, or []uint64) {
	carry := uint64(0)
	for i := range src {
		w := src[i]
		dst[i] = w<<1 | carry | or[i]
		carry = w >> (WordSize - 1)
	}
}

// Bit reports the value of bit i (0 or 1).
func Bit(v []uint64, i int) uint64 {
	return v[i/WordSize] >> (uint(i) % WordSize) & 1
}

// IsZeroBit reports whether bit i is 0. In Bitap semantics a 0 bit denotes a
// (partial) match, so this is the primary query of the traceback algorithm.
func IsZeroBit(v []uint64, i int) bool {
	return v[i/WordSize]>>(uint(i)%WordSize)&1 == 0
}

// SetBit sets bit i to 1.
func SetBit(v []uint64, i int) {
	v[i/WordSize] |= 1 << (uint(i) % WordSize)
}

// ClearBit sets bit i to 0.
func ClearBit(v []uint64, i int) {
	v[i/WordSize] &^= 1 << (uint(i) % WordSize)
}

// CountZeros returns the number of 0 bits among the first nbits bits.
func CountZeros(v []uint64, nbits int) int {
	if nbits <= 0 {
		return 0
	}
	zeros := 0
	full := nbits / WordSize
	for i := 0; i < full; i++ {
		zeros += WordSize - bits.OnesCount64(v[i])
	}
	if rem := nbits % WordSize; rem != 0 {
		mask := uint64(1)<<uint(rem) - 1
		zeros += rem - bits.OnesCount64(v[full]&mask)
	}
	return zeros
}

// String renders the first nbits bits MSB-first (bit nbits-1 leftmost), the
// convention used in the paper's worked examples (Figure 3).
func String(v []uint64, nbits int) string {
	var sb strings.Builder
	sb.Grow(nbits)
	for i := nbits - 1; i >= 0; i-- {
		if IsZeroBit(v, i) {
			sb.WriteByte('0')
		} else {
			sb.WriteByte('1')
		}
	}
	return sb.String()
}

// Vector is a convenience wrapper that pairs word storage with a logical
// bit length. The zero value is an empty vector; use New to allocate.
type Vector struct {
	bits []uint64
	n    int
}

// New returns a Vector of nbits bits, all zero.
func New(nbits int) Vector {
	return Vector{bits: make([]uint64, Words(nbits)), n: nbits}
}

// Len returns the logical number of bits.
func (v Vector) Len() int { return v.n }

// Words exposes the underlying word storage.
func (v Vector) Words() []uint64 { return v.bits }

// Bit reports bit i.
func (v Vector) Bit(i int) uint64 { return Bit(v.bits, i) }

// Set sets bit i to 1.
func (v Vector) Set(i int) { SetBit(v.bits, i) }

// Clear sets bit i to 0.
func (v Vector) Clear(i int) { ClearBit(v.bits, i) }

// ShiftLeft1 shifts the vector left by one bit in place.
func (v Vector) ShiftLeft1() { ShiftLeft1(v.bits, v.bits) }

// String renders the vector MSB-first.
func (v Vector) String() string { return String(v.bits, v.n) }
