// Package bitvec provides multi-word bitvector primitives used by the
// Bitap-family algorithms in this repository (baseline Bitap, GenASM-DC and
// GenASM-TB).
//
// A bitvector is a little-endian slice of 64-bit words: bit i of the vector
// lives at bits[i/64] >> (i%64). The GenASM algorithms only ever need a
// handful of operations — fill with ones, shift left by one with carry
// across words, and single-bit reads — so this package exposes exactly
// those as allocation-free functions over []uint64.
package bitvec

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

// IsZeroBit reports whether bit i is 0. In Bitap semantics a 0 bit denotes a
// (partial) match, so this is the primary query of the traceback algorithm.
func IsZeroBit(v []uint64, i int) bool {
	return v[i/WordSize]>>(uint(i)%WordSize)&1 == 0
}

// ClearBit sets bit i to 0.
func ClearBit(v []uint64, i int) {
	v[i/WordSize] &^= 1 << (uint(i) % WordSize)
}
