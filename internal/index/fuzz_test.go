package index

import (
	"slices"
	"testing"
)

// FuzzCandidates checks the seeding step against the brute-force scan and
// the map-based oracle on fuzzed inputs: the low two bits of each
// reference byte are its code, read bytes map to codes 0..5 (4 and 5 lie
// outside the DNA alphabet and break k-mers), the seed length is 1..MaxK
// and the candidate cap 0..3. One scratch serves every input, so reuse
// across reads of different lengths is exercised too. Plain `go test`
// replays the seed corpus in testdata/fuzz/FuzzCandidates.
func FuzzCandidates(f *testing.F) {
	var s SeedScratch
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
		maxCands := int(capIn) % 4
		idx, err := Build(ref, k)
		if err != nil {
			t.Fatalf("build k=%d on %d bases: %v", k, len(ref), err)
		}
		want := oracleCandidates(bruteForceStarts(ref, read, k), maxCands)
		if got := idx.CandidateLocationsInto(&s, read, maxCands); !slices.Equal(got, want) {
			t.Fatalf("k=%d cap %d: candidates %v, brute force %v", k, maxCands, got, want)
		}
	})
}
