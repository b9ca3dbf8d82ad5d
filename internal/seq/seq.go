// Package seq provides DNA sequence utilities: deterministic synthetic
// genome generation (the stand-in for GRCh38 in this reproduction),
// reverse complementation, and FASTA I/O that delegates to
// the public seqio package (see ReadFASTA for the parse semantics, which
// are stricter than this package's historical verbatim parser).
//
// Sequences are handled in the repository's encoded form: dense alphabet
// codes (A=0, C=1, G=2, T=3 for DNA), matching the paper's 2-bit encoding
// (Section 9).
package seq

import (
	"io"
	"math/rand/v2"

	"genasm/internal/alphabet"
	"genasm/seqio"
)

// Random returns n uniformly random DNA codes from the given seeded source.
func Random(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.IntN(4))
	}
	return s
}

// GenomeConfig controls synthetic genome generation.
type GenomeConfig struct {
	// Length of the genome in bases.
	Length int
	// RepeatFraction is the fraction of the genome covered by copied
	// segments (approximating the repeat structure of real genomes that
	// makes short-read mapping ambiguous, Section 1).
	RepeatFraction float64
	// RepeatLength is the length of each copied segment.
	RepeatLength int
	// RepeatDivergence is the per-base mutation probability applied to
	// each repeat copy (diverged repeats, as in real genomes).
	RepeatDivergence float64
}

// DefaultGenomeConfig mirrors coarse human-genome statistics at laptop
// scale: ~10% repeats of ~300 bp diverged by ~5%.
func DefaultGenomeConfig(length int) GenomeConfig {
	return GenomeConfig{
		Length:           length,
		RepeatFraction:   0.10,
		RepeatLength:     300,
		RepeatDivergence: 0.05,
	}
}

// Genome generates a synthetic genome: a random backbone with diverged
// repeat copies pasted over it. Generation is fully determined by rng.
func Genome(rng *rand.Rand, cfg GenomeConfig) []byte {
	g := Random(rng, cfg.Length)
	if cfg.RepeatFraction <= 0 || cfg.RepeatLength <= 0 || cfg.RepeatLength >= cfg.Length {
		return g
	}
	copies := int(float64(cfg.Length) * cfg.RepeatFraction / float64(cfg.RepeatLength))
	for c := 0; c < copies; c++ {
		src := rng.IntN(cfg.Length - cfg.RepeatLength)
		dst := rng.IntN(cfg.Length - cfg.RepeatLength)
		copy(g[dst:dst+cfg.RepeatLength], g[src:src+cfg.RepeatLength])
		for i := dst; i < dst+cfg.RepeatLength; i++ {
			if rng.Float64() < cfg.RepeatDivergence {
				g[i] = (g[i] + byte(1+rng.IntN(3))) % 4
			}
		}
	}
	return g
}

// ReverseComplement returns the reverse complement of an encoded DNA
// sequence (A<->T, C<->G; with the 2-bit encoding, complement is 3-code).
func ReverseComplement(s []byte) []byte {
	return AppendReverseComplement(make([]byte, 0, len(s)), s)
}

// AppendReverseComplement appends the reverse complement of s to dst and
// returns it — the allocation-free form for callers that keep a reusable
// buffer (pass dst[:0]). dst must not alias s.
func AppendReverseComplement(dst, s []byte) []byte {
	for i := len(s) - 1; i >= 0; i-- {
		dst = append(dst, 3-s[i])
	}
	return dst
}

// GCContent returns the fraction of G/C bases.
func GCContent(s []byte) float64 {
	if len(s) == 0 {
		return 0
	}
	gc := 0
	for _, c := range s {
		if c == 1 || c == 2 {
			gc++
		}
	}
	return float64(gc) / float64(len(s))
}

// Record is a named FASTA sequence (letters, not codes).
type Record struct {
	Name string
	Seq  []byte
}

// WriteFASTA writes records in FASTA format with 70-column wrapping.
func WriteFASTA(w io.Writer, records []Record) error {
	fw := seqio.NewFASTAWriter(w)
	for _, r := range records {
		if err := fw.WriteRecord(seqio.Record{Name: r.Name, Seq: r.Seq}); err != nil {
			return err
		}
	}
	return fw.Flush()
}

// ReadFASTA parses FASTA records by delegating to the public seqio
// streaming parser. Unlike the historical parser, which kept sequence
// lines verbatim (whitespace trimmed), the parse normalizes and
// validates: gzip input is decompressed transparently, CRLF line endings
// are tolerated, bases are uppercased, and a sequence line containing
// anything but letters or the gap/stop characters '-', '.' and '*'
// (digits, interior whitespace, stray '>'/'@' markers) is rejected with
// a line-numbered error. The full header line is kept as Name, matching
// this package's historical behaviour.
func ReadFASTA(r io.Reader) ([]Record, error) {
	fr, err := seqio.NewFASTAReader(r)
	if err != nil {
		return nil, err
	}
	var records []Record
	for rec, err := range fr.Records() {
		if err != nil {
			return nil, err
		}
		name := rec.Name
		if rec.Desc != "" {
			name += " " + rec.Desc
		}
		records = append(records, Record{Name: name, Seq: rec.Seq})
	}
	return records, nil
}

// EncodeRecord converts a FASTA record's letters to DNA codes, mapping any
// ambiguous base (e.g. N) to a deterministic pseudo-random base so that
// downstream 2-bit pipelines keep working (the paper filters unmapped
// contigs instead; for synthetic data this path is rarely exercised).
func EncodeRecord(rec Record) []byte {
	out := make([]byte, len(rec.Seq))
	h := uint32(2166136261)
	for i, c := range rec.Seq {
		if code := alphabet.DNA.Code(c); code >= 0 {
			out[i] = byte(code)
			continue
		}
		h = (h ^ uint32(c)) * 16777619
		out[i] = byte(h>>13) % 4
	}
	return out
}
