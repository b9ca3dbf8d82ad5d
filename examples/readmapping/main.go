// Read mapping end to end: simulate a genome and reads, then run the full
// four-step pipeline of the paper's Figure 1 — indexing, seeding,
// pre-alignment filtering (GenASM-DC) and read alignment (GenASM DC+TB) —
// through the public Engine.NewMapper API and score the mappings against
// the simulation ground truth.
//
// Run with: go run ./examples/readmapping
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"time"

	"genasm"
	"genasm/internal/alphabet"
	"genasm/internal/seq"
	"genasm/internal/simulate"
)

func main() {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(42, 0))

	fmt.Println("generating a 500 kbp synthetic genome with repeats...")
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(500_000))
	genomeLetters := alphabet.DNA.Decode(genome)

	e, err := genasm.NewEngine()
	if err != nil {
		log.Fatal(err)
	}

	datasets := []struct {
		profile simulate.Profile
		n       int
		seedK   int
	}{
		{simulate.Illumina150, 200, 15},
		{simulate.PacBio10, 5, 13},
	}

	for _, d := range datasets {
		simReads, err := simulate.Reads(rng, genome, d.n, d.profile, true)
		if err != nil {
			log.Fatal(err)
		}
		reads := make([]genasm.Read, len(simReads))
		truePos := make([]int, len(simReads))
		for i, r := range simReads {
			reads[i] = genasm.Read{
				Name: fmt.Sprintf("sim%d", i),
				Seq:  alphabet.DNA.Decode(r.Seq),
			}
			truePos[i] = r.Pos
		}

		// Pre-alignment filtering is a short-read step (Section 8); long
		// reads go straight from seeding to alignment.
		m, err := e.NewMapper(genomeLetters, genasm.MapperConfig{
			SeedParams: genasm.SeedParams{SeedK: d.seedK},
			ErrorRate:  d.profile.ErrorRate,
			Prefilter:  d.profile.ReadLen <= 1000,
		})
		if err != nil {
			log.Fatal(err)
		}

		start := time.Now()
		mappings, err := m.MapReads(ctx, reads)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)

		var mapped, correct, candidates, filtered, aligned, totalEdits int
		for i, mp := range mappings {
			candidates += mp.Candidates
			filtered += mp.Filtered
			aligned += mp.Aligned
			if !mp.Mapped {
				continue
			}
			mapped++
			totalEdits += mp.Distance
			if diff := mp.Pos - truePos[i]; diff >= -64 && diff <= 64 {
				correct++
			}
		}

		fmt.Printf("\n== %s: %d reads ==\n", d.profile.Name, d.n)
		fmt.Printf("mapped:     %d/%d\n", mapped, len(reads))
		fmt.Printf("correct:    %d/%d (within 64 bp of truth)\n", correct, len(reads))
		fmt.Printf("candidates: %d tried, %d filtered out, %d aligned\n",
			candidates, filtered, aligned)
		fmt.Printf("avg edits:  %.1f per mapped read\n", float64(totalEdits)/float64(max(1, mapped)))
		fmt.Printf("time:       %s (%.0f reads/s, single thread)\n",
			elapsed.Round(time.Millisecond), float64(len(reads))/elapsed.Seconds())
	}
}
