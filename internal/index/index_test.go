package index

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"genasm/internal/seq"
)

func testRef(n int, seed uint64) []byte {
	return seq.Random(rand.New(rand.NewPCG(seed, 0)), n)
}

func TestBuildValidation(t *testing.T) {
	ref := testRef(100, 1)
	if _, err := Build(ref, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := Build(ref, 32); err == nil {
		t.Error("k=32 should fail (exceeds packing)")
	}
	if _, err := Build(ref[:5], 10); err == nil {
		t.Error("ref shorter than k should fail")
	}
	if _, err := Build([]byte{9}, 1); err == nil {
		t.Error("invalid codes should fail")
	}
	if _, err := BuildMinimizer(ref, 11, 0); err == nil {
		t.Error("window 0 should fail")
	}
}

func TestLookupExact(t *testing.T) {
	ref := testRef(1000, 2)
	idx, err := Build(ref, 11)
	if err != nil {
		t.Fatal(err)
	}
	if idx.K() != 11 {
		t.Fatalf("K = %d", idx.K())
	}
	// Every k-mer position must be findable.
	for i := 0; i+11 <= len(ref); i += 37 {
		locs := idx.Lookup(ref[i : i+11])
		found := false
		for _, l := range locs {
			if int(l) == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("position %d not found in lookup result %v", i, locs)
		}
	}
	// Wrong-length query returns nil.
	if idx.Lookup(ref[:5]) != nil {
		t.Error("wrong-length lookup should return nil")
	}
	if idx.Seeds() != len(ref)-11+1 {
		t.Errorf("Seeds = %d, want %d", idx.Seeds(), len(ref)-11+1)
	}
}

func TestMinimizerSmallerIndex(t *testing.T) {
	ref := testRef(20000, 3)
	full, err := Build(ref, 15)
	if err != nil {
		t.Fatal(err)
	}
	mini, err := BuildMinimizer(ref, 15, 10)
	if err != nil {
		t.Fatal(err)
	}
	if mini.Seeds() >= full.Seeds()/2 {
		t.Errorf("minimizer index %d seeds, full %d: expected substantial shrink", mini.Seeds(), full.Seeds())
	}
	if mini.Seeds() < full.Seeds()/20 {
		t.Errorf("minimizer index %d seeds suspiciously small vs %d", mini.Seeds(), full.Seeds())
	}
}

func TestCandidateLocationsExactRead(t *testing.T) {
	ref := testRef(50000, 4)
	idx, err := Build(ref, 15)
	if err != nil {
		t.Fatal(err)
	}
	read := ref[12345 : 12345+100]
	var s SeedScratch
	cands := idx.CandidateLocationsInto(&s, read, 5)
	if len(cands) == 0 {
		t.Fatal("no candidates for exact read")
	}
	best := cands[0]
	if best.Pos < 12345-16 || best.Pos > 12345+16 {
		t.Fatalf("best candidate at %d, want ~12345", best.Pos)
	}
	if best.Votes < 50 {
		t.Fatalf("votes = %d, expected most of %d k-mers", best.Votes, 100-15+1)
	}
}

func TestCandidateLocationsWithErrors(t *testing.T) {
	ref := testRef(50000, 5)
	idx, err := Build(ref, 13)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(6, 6))
	read := append([]byte(nil), ref[30000:30150]...)
	for e := 0; e < 7; e++ { // ~5% errors
		p := rng.IntN(len(read))
		read[p] = (read[p] + byte(1+rng.IntN(3))) % 4
	}
	var s SeedScratch
	cands := idx.CandidateLocationsInto(&s, read, 10)
	if len(cands) == 0 {
		t.Fatal("no candidates for five-percent-error read")
	}
	found := false
	for _, c := range cands {
		if c.Pos >= 30000-16 && c.Pos <= 30000+16 {
			found = true
		}
	}
	if !found {
		t.Fatalf("true location 30000 not among candidates %v", cands)
	}
}

func TestCandidateLocationsMinimizerIndex(t *testing.T) {
	ref := testRef(50000, 7)
	idx, err := BuildMinimizer(ref, 15, 8)
	if err != nil {
		t.Fatal(err)
	}
	read := ref[41000:41120]
	var s SeedScratch
	cands := idx.CandidateLocationsInto(&s, read, 5)
	if len(cands) == 0 {
		t.Fatal("no candidates via minimizer index")
	}
	if cands[0].Pos < 41000-16 || cands[0].Pos > 41000+16 {
		t.Fatalf("best candidate at %d, want ~41000", cands[0].Pos)
	}
}

func TestCandidateCap(t *testing.T) {
	// Repeat-heavy reference: the same 20-mer everywhere.
	ref := make([]byte, 4000)
	for i := range ref {
		ref[i] = byte(i % 4)
	}
	idx, err := Build(ref, 11)
	if err != nil {
		t.Fatal(err)
	}
	read := ref[100:200]
	var s SeedScratch
	cands := idx.CandidateLocationsInto(&s, read, 3)
	if len(cands) > 3 {
		t.Fatalf("cap violated: %d candidates", len(cands))
	}
}

// TestKRangeTypedError pins the typed error for out-of-range seed
// lengths: callers (the public MapperConfig validation among them) match
// it with errors.As instead of parsing a generic build failure.
func TestKRangeTypedError(t *testing.T) {
	ref := testRef(100, 8)
	for _, k := range []int{0, -3, MaxK + 1, 64} {
		var kerr *KRangeError
		_, err := Build(ref, k)
		if !errors.As(err, &kerr) {
			t.Errorf("Build k=%d: want *KRangeError, got %v", k, err)
			continue
		}
		if kerr.K != k {
			t.Errorf("KRangeError.K = %d, want %d", kerr.K, k)
		}
	}
	if _, err := Build(ref, MaxK); err != nil {
		t.Errorf("k=MaxK should build: %v", err)
	}
}

// TestRefExactlyK covers the smallest legal reference: one k-mer, one
// seed, and a lookup that finds it.
func TestRefExactlyK(t *testing.T) {
	ref := testRef(15, 9)
	idx, err := Build(ref, 15)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Seeds() != 1 {
		t.Errorf("Seeds = %d, want 1", idx.Seeds())
	}
	var s SeedScratch
	cands := idx.CandidateLocationsInto(&s, ref, 0)
	if len(cands) != 1 || cands[0].Pos != 0 || cands[0].Votes != 1 {
		t.Errorf("candidates = %v, want one at 0 with 1 vote", cands)
	}
	// Minimizer path with the single possible window.
	mini, err := BuildMinimizer(ref, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mini.Seeds() != 1 {
		t.Errorf("minimizer Seeds = %d, want 1", mini.Seeds())
	}
}

// TestMinimizerWindowOne pins the w=1 degenerate case: every window holds
// exactly one k-mer, so the "sampled" index keeps every seed and produces
// the same candidates as the full hash index.
func TestMinimizerWindowOne(t *testing.T) {
	ref := testRef(5000, 10)
	full, err := Build(ref, 13)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := BuildMinimizer(ref, 13, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w1.Seeds() != full.Seeds() {
		t.Errorf("w=1 minimizer has %d seeds, full index %d", w1.Seeds(), full.Seeds())
	}
	read := ref[1234:1334]
	var ws, fs SeedScratch
	if got, want := w1.CandidateLocationsInto(&ws, read, 0), full.CandidateLocationsInto(&fs, read, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("w=1 candidates %v, full %v", got, want)
	}
	if st := w1.Stats(); st.Backend != BackendMinimizer || st.MinimizerW != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHashIndexStats(t *testing.T) {
	ref := testRef(2000, 15)
	idx, err := Build(ref, 11)
	if err != nil {
		t.Fatal(err)
	}
	st := idx.Stats()
	if st.Backend != BackendHash || st.K != 11 || st.MinimizerW != 0 ||
		st.RefLen != 2000 || st.Seeds != 2000-11+1 || st.Buckets == 0 || st.Bytes <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestFlattenRoundTrip checks the stored arrays: sorted distinct
// keys, monotone offsets bracketing each key's ascending location run.
func TestFlattenRoundTrip(t *testing.T) {
	ref := testRef(3000, 16)
	idx, err := Build(ref, 9)
	if err != nil {
		t.Fatal(err)
	}
	keys, offs, locs := idx.Arrays()
	if len(offs) != len(keys)+1 || offs[0] != 0 || int(offs[len(offs)-1]) != len(locs) {
		t.Fatalf("offsets malformed: %d keys, %d offs, %d locs", len(keys), len(offs), len(locs))
	}
	if !slices.IsSorted(keys) {
		t.Error("keys not sorted")
	}
	if len(locs) != idx.Seeds() {
		t.Errorf("%d locs, %d seeds", len(locs), idx.Seeds())
	}
	for i, key := range keys {
		span := locs[offs[i]:offs[i+1]]
		if len(span) == 0 {
			t.Fatalf("key %d has empty span", key)
		}
		if !slices.IsSorted(span) {
			t.Fatalf("key %d: locations %v not ascending", key, span)
		}
		for _, p := range span {
			kmer := ref[p : int(p)+idx.K()]
			if pack(kmer) != key {
				t.Fatalf("loc %d under key %d packs to %d", p, key, pack(kmer))
			}
		}
	}
}

// TestDirectoryEdgeCases checks the directory over the keys' top bits
// where its width meets its limits: seed lengths whose 2k bits sit at and
// above the directory width, a one-seed table, a table whose single key
// holds every position, a w=1 minimizer table (every k-mer kept, as in the
// hash table) and a sparse k=31 minimizer table (positions need more bits
// than the keys leave free). Lookup of every reference k-mer, and of
// random k-mers that are mostly absent, must equal a naive scan of the
// kept positions, also on the table FromArrays rebuilds from the built
// arrays, and the directory may hold at most one slot per key.
func TestDirectoryEdgeCases(t *testing.T) {
	random := testRef(2000, 17)
	homopolymer := make([]byte, 500)
	cases := []struct {
		name string
		ref  []byte
		k, w int
	}{
		{"k=1", random, 1, 0},
		{"k=2", random, 2, 0},
		{"k=5", random, 5, 0},
		{"k=11", random, 11, 0},
		{"k=16", random, 16, 0},
		{"k=31", random, 31, 0},
		{"ref exactly k", random[:11], 11, 0},
		{"homopolymer", homopolymer, 11, 0},
		{"minimizer w=1", random, 11, 1},
		{"minimizer k=31 w=20", random, 31, 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var idx *Index
			var err error
			if tc.w == 0 {
				idx, err = Build(tc.ref, tc.k)
			} else {
				idx, err = BuildMinimizer(tc.ref, tc.k, tc.w)
			}
			if err != nil {
				t.Fatal(err)
			}
			keys, offs, locs := idx.Arrays()
			re, err := FromArrays(tc.ref, tc.k, tc.w, keys, offs, locs)
			if err != nil {
				t.Fatal(err)
			}
			st := idx.Stats()
			if re.Stats() != st {
				t.Errorf("stats: built %+v, from arrays %+v", st, re.Stats())
			}
			dirBytes := st.Bytes - int64(len(tc.ref)) - 8*int64(len(keys)) - 4*int64(len(offs)+len(locs))
			if dirBytes > 4*int64(max(len(keys), 1)+1) {
				t.Errorf("directory takes %d bytes for %d keys", dirBytes, len(keys))
			}
			// Naive minimizer selection: per window, the leftmost k-mer
			// with the smallest hash.
			kept := make([]bool, len(tc.ref)-tc.k+1)
			for s := 0; s < len(kept); s++ {
				if tc.w == 0 {
					kept[s] = true
					continue
				}
				if s+tc.w > len(kept) {
					break
				}
				best := s
				for j := s + 1; j < s+tc.w; j++ {
					if mix(pack(tc.ref[j:j+tc.k])) < mix(pack(tc.ref[best:best+tc.k])) {
						best = j
					}
				}
				kept[best] = true
			}
			queries := make([][]byte, 0, len(tc.ref)+50)
			for i := 0; i+tc.k <= len(tc.ref); i++ {
				queries = append(queries, tc.ref[i:i+tc.k])
			}
			rng := rand.New(rand.NewPCG(uint64(tc.k), 18))
			for range 50 {
				queries = append(queries, seq.Random(rng, tc.k))
			}
			for _, q := range queries {
				var want []int32
				for i := 0; i+tc.k <= len(tc.ref); i++ {
					if kept[i] && slices.Equal(tc.ref[i:i+tc.k], q) {
						want = append(want, int32(i))
					}
				}
				if got := idx.Lookup(q); !slices.Equal(got, want) {
					t.Fatalf("Lookup(%v) = %v, want %v", q, got, want)
				}
				if got := re.Lookup(q); !slices.Equal(got, want) {
					t.Fatalf("FromArrays Lookup(%v) = %v, want %v", q, got, want)
				}
			}
		})
	}
}

func TestPackDistinct(t *testing.T) {
	a := pack([]byte{0, 1, 2, 3})
	b := pack([]byte{3, 2, 1, 0})
	c := pack([]byte{0, 1, 2, 2})
	if a == b || a == c || b == c {
		t.Fatalf("pack collisions: %d %d %d", a, b, c)
	}
}
