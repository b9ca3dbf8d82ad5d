package index

import "testing"

// FuzzCandidates checks the seeding step against the brute-force scan and
// the map-based oracle on fuzzed inputs, on both strands: the read's own
// candidates from a plain and a fused pass, and the fused pass's reverse
// list, which must equal a plain pass over the read's reverse complement.
// The low two bits of each reference byte are its code, read bytes map to
// codes 0..5 (4 and 5 lie outside the DNA alphabet and break k-mers), the
// seed length is 1..MaxK, the candidate cap capIn%4 and the minimizer
// window capIn/4%4 (0: every k-mer). Plain `go test` replays the seed
// corpus in testdata/fuzz/FuzzCandidates.
func FuzzCandidates(f *testing.F) {
	var sc strandScratch
	f.Fuzz(func(t *testing.T, refIn, readIn []byte, kIn, capIn uint8) {
		if len(refIn) > 512 || len(readIn) > 256 {
			return
		}
		k := 1 + int(kIn)%MaxK
		if len(refIn) < k {
			return
		}
		ref := make([]byte, len(refIn))
		for i, b := range refIn {
			ref[i] = b & 3
		}
		read := make([]byte, len(readIn))
		for i, b := range readIn {
			read[i] = b % 6
		}
		maxCands, w := int(capIn)%4, int(capIn)/4%4
		var idx *Index
		var err error
		if w == 0 {
			idx, err = Build(ref, k)
		} else {
			idx, err = BuildMinimizer(ref, k, w)
		}
		if err != nil {
			t.Fatalf("build k=%d w=%d on %d bases: %v", k, w, len(ref), err)
		}
		checkBothStrands(t, &sc, idx, ref, read, keptPositions(ref, k, w), maxCands)
	})
}
