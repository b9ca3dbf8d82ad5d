package main

import (
	"fmt"
	"math/rand/v2"
)

var bases = [4]byte{'A', 'C', 'G', 'T'}

// makeGenome returns a synthetic genome of n letters: a random backbone
// with diverged repeat copies pasted over it (10% of the genome in 300 bp
// copies at 5% divergence), so seeding meets the multi-locus candidates a
// real genome produces.
func makeGenome(rng *rand.Rand, n int) []byte {
	g := make([]byte, n)
	for i := range g {
		g[i] = bases[rng.IntN(4)]
	}
	const repeatLen, repeatFrac, divergence = 300, 0.10, 0.05
	for c := 0; c < int(float64(n)*repeatFrac/repeatLen); c++ {
		src, dst := rng.IntN(n-repeatLen), rng.IntN(n-repeatLen)
		copy(g[dst:dst+repeatLen], g[src:src+repeatLen])
		for i := dst; i < dst+repeatLen; i++ {
			if rng.Float64() < divergence {
				g[i] = mutate(rng, g[i])
			}
		}
	}
	return g
}

// mutate returns a letter other than b.
func mutate(rng *rand.Rand, b byte) byte {
	for {
		if c := bases[rng.IntN(4)]; c != b {
			return c
		}
	}
}

// profile is a sequencing error model: read length, error rate, and how the
// errors split into substitutions, insertions and deletions (the rest).
// Half the reads come from the reverse strand.
type profile struct {
	readLen          int
	errRate          float64
	subFrac, insFrac float64
}

// read is one simulated read with its ground truth.
type read struct {
	name string
	seq  []byte
	// pos is the 0-based genome position the read was drawn from; span the
	// genome bases it covers; rev whether it was reverse-complemented.
	pos, span int
	rev       bool
}

// makeReads draws n reads from the genome under p.
func makeReads(rng *rand.Rand, genome []byte, n int, p profile) []read {
	slack := int(float64(p.readLen)*p.errRate*2) + 10
	reads := make([]read, n)
	for id := range reads {
		pos := rng.IntN(len(genome) - p.readLen - slack)
		s := make([]byte, 0, p.readLen)
		gi := pos
		for len(s) < p.readLen && gi < len(genome) {
			if rng.Float64() >= p.errRate {
				s = append(s, genome[gi])
				gi++
				continue
			}
			switch x := rng.Float64(); {
			case x < p.subFrac:
				s = append(s, mutate(rng, genome[gi]))
				gi++
			case x < p.subFrac+p.insFrac:
				s = append(s, bases[rng.IntN(4)])
			default:
				gi++ // deletion: the genome base is skipped
			}
		}
		r := read{name: fmt.Sprintf("r%d", id), seq: s, pos: pos, span: gi - pos}
		if rng.IntN(2) == 1 {
			r.seq, r.rev = revComp(s), true
		}
		reads[id] = r
	}
	return reads
}

func revComp(s []byte) []byte {
	out := make([]byte, len(s))
	for i, c := range s {
		var rc byte
		switch c {
		case 'A':
			rc = 'T'
		case 'C':
			rc = 'G'
		case 'G':
			rc = 'C'
		case 'T':
			rc = 'A'
		}
		out[len(s)-1-i] = rc
	}
	return out
}
