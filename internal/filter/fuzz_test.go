package filter

import (
	"math/rand/v2"
	"testing"

	"genasm/internal/myers"
)

// FuzzFilterNoFalseReject checks GenASM-DC's decision against the Myers
// semi-global distance: AcceptScratch accepts exactly when the read occurs
// in the region with at most k edits. Input bytes map to DNA codes by
// their low two bits (the seed corpus spells them '0'..'3'). One Scratch
// and one read buffer, rewritten in place, serve every call, as in the
// mapper, so a stale read/k memo shows as a wrong decision. The seed
// corpus holds mapperPair draws for read lengths 1 to 257, on and off
// target, at the mapper's k and at k = d and d-1 for the true distance d.
func FuzzFilterNoFalseReject(f *testing.F) {
	var (
		s    Scratch
		read []byte
	)
	f.Fuzz(func(t *testing.T, regionIn, readIn []byte, kIn uint8) {
		// The mapper never filters an empty read or region; an empty
		// region has no text position for a hit.
		if len(readIn) == 0 || len(regionIn) == 0 || len(readIn) > 1024 || len(regionIn) > 2048 {
			return
		}
		region := make([]byte, len(regionIn))
		for i, b := range regionIn {
			region[i] = b & 3
		}
		read = read[:0]
		for _, b := range readIn {
			read = append(read, b&3)
		}
		k := int(kIn)
		got, err := GenASMDC{}.AcceptScratch(&s, region, read, k)
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := myers.SemiGlobal(region, read, 4)
		if err != nil {
			t.Fatal(err)
		}
		if want := d <= k; got != want {
			t.Fatalf("m=%d n=%d k=%d: accept = %v, Myers distance %d", len(read), len(region), k, got, d)
		}
	})
}

// mapperPair draws a read of m bases at the given error rate and its
// candidate region in the mapper's geometry: 16 leading bases, the read's
// span, then k+16 trailing bases. Off target, the read comes from
// unrelated sequence. Errors are substitution-dominated, as in Illumina
// data.
func mapperPair(rng *rand.Rand, m, k int, errRate float64, onTarget bool) (region, read []byte) {
	region = make([]byte, 16+m+k+16)
	for i := range region {
		region[i] = byte(rng.IntN(4))
	}
	src := region[16:]
	if !onTarget {
		src = make([]byte, m+k+16)
		for i := range src {
			src[i] = byte(rng.IntN(4))
		}
	}
	read = make([]byte, 0, m)
	for gi := 0; len(read) < m && gi < len(src); {
		if rng.Float64() >= errRate {
			read = append(read, src[gi])
			gi++
			continue
		}
		switch x := rng.Float64(); {
		case x < 0.90:
			read = append(read, (src[gi]+byte(1+rng.IntN(3)))%4)
			gi++
		case x < 0.95:
			read = append(read, byte(rng.IntN(4)))
		default:
			gi++
		}
	}
	return region, read
}
