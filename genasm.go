package genasm

import (
	"fmt"
	"strings"

	"genasm/internal/alphabet"
	"genasm/internal/cigar"
	"genasm/internal/core"
)

// Alphabet selects the character set of the inputs.
type Alphabet int

// Supported alphabets (Section 11: DNA plus RNA, protein and raw bytes for
// generic text search).
const (
	DNA Alphabet = iota
	RNA
	Protein
	Bytes
)

// impl returns the internal alphabet behind a, or nil for an unknown
// Alphabet value.
func (a Alphabet) impl() *alphabet.Alphabet {
	switch a {
	case DNA:
		return alphabet.DNA
	case RNA:
		return alphabet.RNA
	case Protein:
		return alphabet.Protein
	case Bytes:
		return alphabet.Bytes
	default:
		return nil
	}
}

// String implements fmt.Stringer. Unknown values print as Alphabet(n).
func (a Alphabet) String() string {
	if impl := a.impl(); impl != nil {
		return impl.Name()
	}
	return fmt.Sprintf("Alphabet(%d)", int(a))
}

// ParseAlphabet maps a name ("dna", "rna", "protein", "bytes") to its
// Alphabet; it is the inverse of String for flag and API parsing.
func ParseAlphabet(name string) (Alphabet, error) {
	for _, a := range []Alphabet{DNA, RNA, Protein, Bytes} {
		if strings.EqualFold(name, a.String()) {
			return a, nil
		}
	}
	return DNA, fmt.Errorf("genasm: unknown alphabet %q", name)
}

// Config parameterizes an Engine. The zero value is the paper's setup:
// DNA alphabet, window size 64, overlap 24, affine-gap-aware traceback.
type Config struct {
	// Alphabet of the input sequences.
	Alphabet Alphabet
	// WindowSize (W) and Overlap (O) are the divide-and-conquer
	// parameters; zero values select the paper's W=64, O=24.
	WindowSize int
	Overlap    int
	// SearchStart lets the alignment begin at the best matching position
	// within the first window instead of exactly at the text start —
	// the right setting when the text is a candidate region whose start
	// is approximate.
	SearchStart bool
	// GapsBeforeSubstitutions inverts the traceback preference order for
	// scoring schemes where gaps are cheaper than substitutions
	// (Section 6, partial support for complex scoring schemes).
	GapsBeforeSubstitutions bool
}

// coreConfig lowers the public Config to the internal core configuration.
func (cfg Config) coreConfig() core.Config {
	c := core.Config{
		Alphabet:             cfg.Alphabet.impl(),
		WindowSize:           cfg.WindowSize,
		Overlap:              cfg.Overlap,
		FindFirstWindowStart: cfg.SearchStart,
	}
	if cfg.GapsBeforeSubstitutions {
		c.Order = core.OrderGapFirst
	}
	return c
}

// Alignment is the result of aligning a query against a text.
type Alignment struct {
	// CIGAR is the extended CIGAR string ('='/'X'/'I'/'D').
	CIGAR string
	// ClassicCIGAR merges '=' and 'X' into 'M' runs.
	ClassicCIGAR string
	// Distance is the edit distance of the alignment.
	Distance int
	// TextStart and TextEnd delimit the aligned text region.
	TextStart, TextEnd int
	// Matches is the number of exactly matching positions.
	Matches int

	runs cigar.Cigar
}

// alignmentFromCore lifts a core alignment into the public result type.
// The core Cigar views a pooled workspace's arena, so the retained runs
// are cloned: public Alignments are always caller-owned.
func alignmentFromCore(aln core.Alignment) Alignment {
	return Alignment{
		CIGAR:        aln.Cigar.String(),
		ClassicCIGAR: aln.Cigar.Format(false),
		Distance:     aln.Distance,
		TextStart:    aln.TextStart,
		TextEnd:      aln.TextEnd,
		Matches:      aln.Cigar.Matches(),
		runs:         aln.Cigar.Clone(),
	}
}

// Score evaluates the alignment under an affine-gap scoring scheme.
func (a Alignment) Score(s Scoring) int {
	return cigar.Scoring(s).Score(a.runs)
}

// Scoring is an affine-gap scoring scheme: Match is a reward (positive),
// the rest are penalties (negative). GapOpen is charged once per gap in
// addition to GapExtend per gapped character.
type Scoring struct {
	Match     int
	Mismatch  int
	GapOpen   int
	GapExtend int
}

// Predefined scoring schemes used in the paper's accuracy analysis.
var (
	// ScoringBWAMEM is BWA-MEM's default scheme.
	ScoringBWAMEM = Scoring{Match: 1, Mismatch: -4, GapOpen: -6, GapExtend: -1}
	// ScoringMinimap2 is Minimap2's default scheme.
	ScoringMinimap2 = Scoring{Match: 2, Mismatch: -4, GapOpen: -4, GapExtend: -2}
)

// Engine (engine.go) is the one way in: alignment, edit distance, search,
// filtering, batches and read mapping are all Engine methods.
