package mapper

import (
	"math/rand/v2"
	"testing"

	"genasm/internal/seq"
	"genasm/internal/simulate"
)

// TestRecallPerProfile maps simulated reads of every simulate profile,
// both strands, over a 1 Mbp genome with diverged repeats through the
// default Config, and checks recall (reads mapped within 32 bp of their
// true position, over all reads) and precision (the same count over the
// mapped reads) against the truth. Simulation and mapping are
// deterministic, so the floors are the measured counts: a read that no
// longer maps within 32 bp, or one that maps elsewhere, fails the test.
// (Capping the first search window at W text letters, the bug the 2W
// window fixed, loses five reads here.)
func TestRecallPerProfile(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 1))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(1_000_000))
	m := newMapper(t, genome, Config{})
	// Reads drawn per profile, then the measured mapped and correct
	// counts.
	floors := map[string]struct{ reads, mapped, correct int }{
		"Illumina-100bp": {2000, 1999, 1990},
		"Illumina-150bp": {2000, 2000, 1999},
		"Illumina-250bp": {2000, 2000, 1999},
		"PacBio-10%":     {60, 60, 60},
		"PacBio-15%":     {60, 60, 60},
		"ONT-10%":        {60, 60, 60},
		"ONT-15%":        {60, 59, 59},
	}
	for _, p := range simulate.Profiles() {
		f, ok := floors[p.Name]
		if !ok {
			t.Fatalf("profile %s has no floor", p.Name)
		}
		reads, err := simulate.Reads(rng, genome, f.reads, p, true)
		if err != nil {
			t.Fatal(err)
		}
		seqs := make([][]byte, len(reads))
		pos := make([]int, len(reads))
		for i, r := range reads {
			seqs[i], pos[i] = r.Seq, r.Pos
		}
		_, st, err := m.MapAll(seqs, pos, 32)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d reads, %d mapped, %d within 32 bp: recall %.3f, precision %.3f",
			p.Name, st.Reads, st.Mapped, st.Correct,
			float64(st.Correct)/float64(st.Reads), float64(st.Correct)/float64(max(st.Mapped, 1)))
		if st.Correct < f.correct || st.Mapped-st.Correct > f.mapped-f.correct {
			t.Errorf("%s: %d mapped, %d within 32 bp; want at least %d within 32 bp and at most %d elsewhere",
				p.Name, st.Mapped, st.Correct, f.correct, f.mapped-f.correct)
		}
	}
}
