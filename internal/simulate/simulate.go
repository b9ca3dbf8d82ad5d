// Package simulate generates synthetic sequencing reads with the error
// profiles of the paper's datasets (Section 9): PBSIM-like PacBio CLR
// reads, ONT R9-like nanopore reads (both 10 kbp at 10% and 15% error) and
// Mason-like Illumina short reads (100/150/250 bp at 5% error).
//
// Real simulators draw errors from empirically calibrated models; what the
// paper's evaluation depends on is read length, total error rate and the
// substitution/insertion/deletion mix, which this package reproduces with a
// seeded deterministic generator.
package simulate

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"genasm/internal/seq"
)

// Profile describes a sequencing technology's error model.
type Profile struct {
	// Name identifies the profile in reports (e.g. "PacBio-10%").
	Name string
	// ReadLen is the read length in bases.
	ReadLen int
	// ErrorRate is the per-base total error probability.
	ErrorRate float64
	// SubFrac, InsFrac and DelFrac partition ErrorRate among the three
	// edit types; they must sum to 1.
	SubFrac, InsFrac, DelFrac float64
}

// Dataset profiles from Section 9 of the paper. The edit-type mixes follow
// the simulators the paper uses: PBSIM's continuous-long-read default mix
// (sub:ins:del = 10:60:30), the MinION R9.0 chemistry mix reported by the
// MARC phase-2 analysis (approximately 25:25:50), and Mason's
// substitution-dominated Illumina model (90:5:5).
var (
	PacBio10 = Profile{Name: "PacBio-10%", ReadLen: 10000, ErrorRate: 0.10, SubFrac: 0.10, InsFrac: 0.60, DelFrac: 0.30}
	PacBio15 = Profile{Name: "PacBio-15%", ReadLen: 10000, ErrorRate: 0.15, SubFrac: 0.10, InsFrac: 0.60, DelFrac: 0.30}
	ONT10    = Profile{Name: "ONT-10%", ReadLen: 10000, ErrorRate: 0.10, SubFrac: 0.25, InsFrac: 0.25, DelFrac: 0.50}
	ONT15    = Profile{Name: "ONT-15%", ReadLen: 10000, ErrorRate: 0.15, SubFrac: 0.25, InsFrac: 0.25, DelFrac: 0.50}

	Illumina100 = Profile{Name: "Illumina-100bp", ReadLen: 100, ErrorRate: 0.05, SubFrac: 0.90, InsFrac: 0.05, DelFrac: 0.05}
	Illumina150 = Profile{Name: "Illumina-150bp", ReadLen: 150, ErrorRate: 0.05, SubFrac: 0.90, InsFrac: 0.05, DelFrac: 0.05}
	Illumina250 = Profile{Name: "Illumina-250bp", ReadLen: 250, ErrorRate: 0.05, SubFrac: 0.90, InsFrac: 0.05, DelFrac: 0.05}
)

// LongReadProfiles are the four long-read datasets of Figure 9.
var LongReadProfiles = []Profile{PacBio10, PacBio15, ONT10, ONT15}

// ShortReadProfiles are the three short-read datasets of Figure 10.
var ShortReadProfiles = []Profile{Illumina100, Illumina150, Illumina250}

// Profiles returns every named profile, long reads first.
func Profiles() []Profile {
	out := make([]Profile, 0, len(LongReadProfiles)+len(ShortReadProfiles))
	out = append(out, LongReadProfiles...)
	out = append(out, ShortReadProfiles...)
	return out
}

// ProfileByName resolves a profile by its Name or by a relaxed slug
// ("pacbio-10", "ont15", "illumina-150bp", case-insensitive, '%' and
// separators ignored), so CLI flags and scenario files don't need the
// exact display spelling.
func ProfileByName(name string) (Profile, error) {
	want := profileKey(name)
	for _, p := range Profiles() {
		if profileKey(p.Name) == want {
			return p, nil
		}
	}
	known := make([]string, 0, 7)
	for _, p := range Profiles() {
		known = append(known, p.Name)
	}
	return Profile{}, fmt.Errorf("simulate: unknown profile %q (known: %s)", name, strings.Join(known, ", "))
}

// profileKey canonicalizes a profile name for matching: lowercase
// alphanumerics only, with a trailing "bp" suffix dropped.
func profileKey(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	return strings.TrimSuffix(b.String(), "bp")
}

// Read is a simulated read with its ground truth.
type Read struct {
	// ID is the read's index within its dataset.
	ID int
	// Seq is the encoded read sequence.
	Seq []byte
	// Pos is the 0-based position in the genome the read was drawn from
	// (always on the forward strand; RevComp reads were complemented
	// after extraction, so Pos still refers to the forward genome).
	Pos int
	// GenomeSpan is the number of genome bases the read consumed
	// (ReadLen shifted by the insertion/deletion imbalance).
	GenomeSpan int
	// Edits is the number of sequencing errors injected.
	Edits int
	// RevComp reports whether the read is reverse-complemented.
	RevComp bool
}

// Validate checks profile invariants.
func (p Profile) Validate() error {
	if p.ReadLen <= 0 {
		return fmt.Errorf("simulate: profile %q: non-positive read length", p.Name)
	}
	if p.ErrorRate < 0 || p.ErrorRate >= 1 {
		return fmt.Errorf("simulate: profile %q: error rate %v out of [0,1)", p.Name, p.ErrorRate)
	}
	if sum := p.SubFrac + p.InsFrac + p.DelFrac; sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("simulate: profile %q: edit fractions sum to %v, want 1", p.Name, sum)
	}
	return nil
}

// Reads draws n reads from the genome under the profile. Generation is
// fully determined by rng. With revComp set, each read is
// reverse-complemented with probability 1/2 (as real sequencers sample both
// strands).
func Reads(rng *rand.Rand, genome []byte, n int, p Profile, revComp bool) ([]Read, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Insertions consume no genome; deletions consume extra. Reserve slack
	// so a read near the genome end cannot run out of bases.
	slack := int(float64(p.ReadLen)*p.ErrorRate*2) + 10
	if len(genome) < p.ReadLen+slack {
		return nil, fmt.Errorf("simulate: genome length %d too short for %d bp reads", len(genome), p.ReadLen)
	}
	reads := make([]Read, 0, n)
	for id := 0; id < n; id++ {
		pos := rng.IntN(len(genome) - p.ReadLen - slack)
		r := draw(rng, genome, pos, p)
		r.ID = id
		if revComp && rng.IntN(2) == 1 {
			r.Seq = seq.ReverseComplement(r.Seq)
			r.RevComp = true
		}
		reads = append(reads, r)
	}
	return reads, nil
}

// draw walks the genome from pos emitting read bases, injecting errors at
// the profile's rate, until the read reaches its target length.
func draw(rng *rand.Rand, genome []byte, pos int, p Profile) Read {
	read := make([]byte, 0, p.ReadLen)
	gi := pos
	edits := 0
	for len(read) < p.ReadLen && gi < len(genome) {
		if rng.Float64() >= p.ErrorRate {
			read = append(read, genome[gi])
			gi++
			continue
		}
		edits++
		switch x := rng.Float64(); {
		case x < p.SubFrac:
			read = append(read, (genome[gi]+byte(1+rng.IntN(3)))%4)
			gi++
		case x < p.SubFrac+p.InsFrac:
			read = append(read, byte(rng.IntN(4)))
		default:
			gi++ // deletion: genome base skipped
		}
	}
	return Read{Seq: read, Pos: pos, GenomeSpan: gi - pos, Edits: edits}
}

// CandidateRegion returns the reference region a read should be aligned
// against given an (approximate) mapping position: the read length plus
// slack for deletions, clamped to the genome — the "text region" of the
// paper's read alignment use case (length m+k, Section 6).
func CandidateRegion(genome []byte, pos, readLen int, errorRate float64) []byte {
	k := int(float64(readLen)*errorRate) + 16
	end := min(len(genome), pos+readLen+k)
	start := max(0, min(pos, len(genome)))
	return genome[start:end]
}
