package index

import (
	"cmp"
	"errors"
	"math/bits"
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
		locs := lookup(idx, ref[i:i+11])
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
	if lookup(idx, ref[:5]) != nil {
		t.Error("wrong-length lookup should return nil")
	}
	if idx.Stats().Seeds != len(ref)-11+1 {
		t.Errorf("Seeds = %d, want %d", idx.Stats().Seeds, len(ref)-11+1)
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
	if mini.Stats().Seeds >= full.Stats().Seeds/2 {
		t.Errorf("minimizer index %d seeds, full %d: expected substantial shrink", mini.Stats().Seeds, full.Stats().Seeds)
	}
	if mini.Stats().Seeds < full.Stats().Seeds/20 {
		t.Errorf("minimizer index %d seeds suspiciously small vs %d", mini.Stats().Seeds, full.Stats().Seeds)
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
	cands := idx.CandidateLocationsInto(&s, read, 5, nil)
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
	cands := idx.CandidateLocationsInto(&s, read, 10, nil)
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
	cands := idx.CandidateLocationsInto(&s, read, 5, nil)
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
	cands := idx.CandidateLocationsInto(&s, read, 3, nil)
	if len(cands) > 3 {
		t.Fatalf("cap violated: %d candidates", len(cands))
	}
}

// oracleCandidates aggregates seed votes — one implied read start per
// hit — into ranked candidates by counting in maps, a test-only oracle
// independent of SeedScratch's sort-based counting: votes pool in bins of
// start/16 (truncating),
// each bin anchors at its most-voted exact start (the smallest on equal
// votes) clamped to 0, and candidates rank by votes descending, then Pos
// ascending, capped at maxCandidates (0 = no cap).
func oracleCandidates(starts []int, maxCandidates int) []Candidate {
	type binAgg struct{ votes, bestStart, bestVotes int }
	const bin = 16
	exact := make(map[int]int)
	for _, start := range starts {
		exact[start]++
	}
	bins := make(map[int]binAgg)
	for start, v := range exact {
		b, ok := bins[start/bin]
		if !ok {
			b = binAgg{bestStart: start, bestVotes: v}
		}
		b.votes += v
		if v > b.bestVotes || (v == b.bestVotes && start < b.bestStart) {
			b.bestVotes, b.bestStart = v, start
		}
		bins[start/bin] = b
	}
	cands := []Candidate{}
	for _, b := range bins {
		cands = append(cands, Candidate{Pos: max(b.bestStart, 0), Votes: b.votes})
	}
	slices.SortFunc(cands, func(a, b Candidate) int {
		if c := cmp.Compare(b.Votes, a.Votes); c != 0 {
			return c
		}
		return cmp.Compare(a.Pos, b.Pos)
	})
	if maxCandidates > 0 && len(cands) > maxCandidates {
		return cands[:maxCandidates]
	}
	return cands
}

// bruteForceStarts is the seeding step's vote list by a naive scan: every
// exact occurrence in ref of every in-alphabet k-mer of read votes for its
// implied start. Only the reference positions kept marks count (nil: all).
func bruteForceStarts(ref, read []byte, k int, kept []bool) []int {
	var starts []int
	for i := 0; i+k <= len(read); i++ {
		kmer := read[i : i+k]
		if slices.ContainsFunc(kmer, func(c byte) bool { return c > 3 }) {
			continue
		}
		for q := 0; q+k <= len(ref); q++ {
			if (kept == nil || kept[q]) && slices.Equal(ref[q:q+k], kmer) {
				starts = append(starts, q-i)
			}
		}
	}
	return starts
}

// keptPositions is minimizer selection by a naive scan: per window of w
// consecutive k-mers, the leftmost with the smallest hash of its forward
// packing. It is nil when w is 0, as every k-mer is kept.
func keptPositions(ref []byte, k, w int) []bool {
	if w == 0 {
		return nil
	}
	kept := make([]bool, len(ref)-k+1)
	for s := 0; s+w <= len(kept); s++ {
		best := s
		for j := s + 1; j < s+w; j++ {
			if mix(pack(ref[j:j+k])) < mix(pack(ref[best:best+k])) {
				best = j
			}
		}
		kept[best] = true
	}
	return kept
}

// strandScratch is checkBothStrands' scratch, reused across reads so
// that reuse across read lengths is exercised too.
type strandScratch struct{ plain, fused, rev, rc SeedScratch }

// checkBothStrands checks one read against the naive scan on both
// strands: the forward candidates of a plain pass and of a fused pass,
// and the fused pass's reverse list (ranked with the same cap), which
// must also equal a plain pass over the read's reverse complement.
func checkBothStrands(t *testing.T, sc *strandScratch, idx *Index, ref, read []byte, kept []bool, maxCands int) {
	t.Helper()
	k := idx.K()
	rcRead := seq.ReverseComplement(read)
	want := oracleCandidates(bruteForceStarts(ref, read, k, kept), maxCands)
	wantRev := oracleCandidates(bruteForceStarts(ref, rcRead, k, kept), maxCands)
	if g := idx.CandidateLocationsInto(&sc.plain, read, maxCands, nil); !slices.Equal(g, want) {
		t.Fatalf("read %v cap %d: table candidates %v, brute force %v", read, maxCands, g, want)
	}
	if g := idx.CandidateLocationsInto(&sc.fused, read, maxCands, &sc.rev); !slices.Equal(g, want) {
		t.Fatalf("read %v cap %d: fused forward candidates %v, brute force %v", read, maxCands, g, want)
	}
	g, two := sc.rev.Rank(maxCands), idx.CandidateLocationsInto(&sc.rc, rcRead, maxCands, nil)
	if !slices.Equal(g, two) || !slices.Equal(g, wantRev) {
		t.Fatalf("read %v cap %d: fused reverse candidates %v, reverse-complement pass %v, brute force %v",
			read, maxCands, g, two, wantRev)
	}
}

// palindromic returns a random reference of n bases holding copies of
// even-length reverse-complement palindromes (x followed by its reverse
// complement), so that even seed lengths meet k-mers that are their own
// reverse complement.
func palindromic(n int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 1))
	ref := seq.Random(rng, n)
	for range n / 40 {
		half := seq.Random(rng, 1+rng.IntN(10))
		pal := append(half, seq.ReverseComplement(half)...)
		copy(ref[rng.IntN(n-len(pal)):], pal)
	}
	return ref
}

// TestCandidatesMatchBruteForce checks the seed table against a naive
// scan: every exact occurrence of every in-alphabet read k-mer votes for
// its implied start, and the table's candidates must equal what the
// map-based oracle makes of those votes, for the read and, through the
// fused pass, for its reverse complement. The cases cover repeats,
// non-ACGT read codes, reads up to 256 bases, k = 1, 15, 16 and MaxK,
// palindromic k-mers (which vote for both strands), a reference of
// exactly k bases, minimizer tables and caps of 0 and 1.
func TestCandidatesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 0))
	repeats := make([]byte, 1200)
	for i := range repeats {
		repeats[i] = byte(i % 7 % 4) // period-7 tandem repeat
	}
	copy(repeats[500:], testRef(100, 48))
	cases := []struct {
		name string
		ref  []byte
		k, w int
	}{
		{"random-k11", testRef(3000, 49), 11, 0},
		{"repeats-k5", repeats, 5, 0},
		{"k1", testRef(200, 50), 1, 0},
		{"kmax", testRef(800, 51), MaxK, 0},
		{"ref-exactly-k", testRef(13, 52), 13, 0},
		{"k15", testRef(2000, 53), 15, 0},
		{"palindromes-k16", palindromic(1500, 54), 16, 0},
		{"palindromes-k4", palindromic(600, 55), 4, 0},
		{"minimizer-k15-w5", testRef(2000, 56), 15, 5},
		{"minimizer-palindromes-k16-w3", palindromic(1500, 57), 16, 3},
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
			kept := keptPositions(tc.ref, tc.k, tc.w)
			var sc strandScratch
			for trial := range 30 {
				n := 1 + rng.IntN(min(len(tc.ref), 256))
				p := rng.IntN(len(tc.ref) - n + 1)
				read := append([]byte(nil), tc.ref[p:p+n]...)
				switch trial % 3 {
				case 1: // substitutions
					for range 1 + n/20 {
						q := rng.IntN(n)
						read[q] = (read[q] + byte(1+rng.IntN(3))) % 4
					}
				case 2: // codes outside the DNA alphabet cast no votes
					for range 1 + n/30 {
						read[rng.IntN(n)] = byte(4 + rng.IntN(6))
					}
				}
				for _, maxCands := range []int{0, 1} {
					checkBothStrands(t, &sc, idx, tc.ref, read, kept, maxCands)
				}
			}
		})
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
	if idx.Stats().Seeds != 1 {
		t.Errorf("Seeds = %d, want 1", idx.Stats().Seeds)
	}
	var s SeedScratch
	cands := idx.CandidateLocationsInto(&s, ref, 0, nil)
	if len(cands) != 1 || cands[0].Pos != 0 || cands[0].Votes != 1 {
		t.Errorf("candidates = %v, want one at 0 with 1 vote", cands)
	}
	// Minimizer path with the single possible window.
	mini, err := BuildMinimizer(ref, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mini.Stats().Seeds != 1 {
		t.Errorf("minimizer Seeds = %d, want 1", mini.Stats().Seeds)
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
	if w1.Stats().Seeds != full.Stats().Seeds {
		t.Errorf("w=1 minimizer has %d seeds, full index %d", w1.Stats().Seeds, full.Stats().Seeds)
	}
	read := ref[1234:1334]
	var ws, fs SeedScratch
	if got, want := w1.CandidateLocationsInto(&ws, read, 0, nil), full.CandidateLocationsInto(&fs, read, 0, nil); !reflect.DeepEqual(got, want) {
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

// pack encodes a k-mer of 2-bit codes into a uint64.
func pack(kmer []byte) uint64 {
	var v uint64
	for _, c := range kmer {
		v = v<<2 | uint64(c)
	}
	return v
}

// runOf returns the location words (pos<<1|strand) of table entry i.
func runOf(idx *Index, i int) []uint32 {
	v := idx.entries[i] & (1<<idx.valBits - 1)
	if v&1 == 0 {
		return []uint32{uint32(v >> 1)}
	}
	return idx.locs[v>>1+1 : v>>1+1+uint64(idx.locs[v>>1])]
}

// lookup returns the ascending reference positions that hold kmer itself
// (nil if none), by the seeding step's canonical-key search.
func lookup(idx *Index, kmer []byte) []int32 {
	if len(kmer) != idx.k || slices.ContainsFunc(kmer, func(c byte) bool { return c > 3 }) {
		return nil
	}
	key := canonical(pack(kmer), pack(seq.ReverseComplement(kmer)), kmerMask(idx.k))
	slot := key >> (idx.shift + 2)
	i := slices.IndexFunc(idx.entries[idx.dir[slot]:idx.dir[slot+1]], func(e uint64) bool {
		return e>>idx.valBits == key>>2&(1<<idx.shift-1)
	})
	if i < 0 {
		return nil
	}
	var out []int32
	for _, l := range runOf(idx, int(idx.dir[slot])+i) {
		if uint64(l&1) == key&1 || key&2 != 0 {
			out = append(out, int32(l>>1))
		}
	}
	return out
}

// TestFlattenRoundTrip checks the stored arrays: a directory bracketing
// every entry, keys ascending within a slot, runs that tile locs with
// ascending positions, and every location holding its entry's key on the
// strand its bit names.
func TestFlattenRoundTrip(t *testing.T) {
	ref := testRef(3000, 16)
	idx, err := Build(ref, 9)
	if err != nil {
		t.Fatal(err)
	}
	entries, dir, locs := idx.Arrays()
	if dir[0] != 0 || int(dir[len(dir)-1]) != len(entries) {
		t.Fatalf("directory malformed: %d entries, %d slots", len(entries), len(dir)-1)
	}
	seeds, runWords := 0, 0
	for s := 0; s+1 < len(dir); s++ {
		for i := dir[s]; i < dir[s+1]; i++ {
			if i > dir[s] && entries[i]>>idx.valBits <= entries[i-1]>>idx.valBits {
				t.Fatalf("entry %d: keys not ascending within slot %d", i, s)
			}
			key := uint64(s)<<idx.shift | entries[i]>>idx.valBits
			run := runOf(idx, int(i))
			if len(run) > 1 {
				runWords += 1 + len(run)
			}
			if !slices.IsSortedFunc(run, func(a, b uint32) int { return cmp.Compare(a>>1, b>>1) }) {
				t.Fatalf("key %d: locations %v not ascending", key, run)
			}
			for _, l := range run {
				kmer := ref[l>>1 : int(l>>1)+idx.K()]
				if l&1 == 1 {
					kmer = seq.ReverseComplement(kmer)
				}
				// Oriented by its strand bit, the k-mer is the smaller of
				// itself and its reverse complement.
				if c := canonical(pack(kmer), pack(seq.ReverseComplement(kmer)), kmerMask(idx.k)); c>>2 != key || c&1 != 0 {
					t.Fatalf("loc %d under key %d packs to %d", l, key, c)
				}
			}
			seeds += len(run)
		}
	}
	if seeds != idx.Stats().Seeds || runWords != len(locs) {
		t.Errorf("%d seeds over %d run words, want %d over %d", seeds, runWords, idx.Stats().Seeds, len(locs))
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
// arrays, and the directory may hold at most one slot per key unless the
// entries' key bits need it wider.
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
			entries, dir, locs := idx.Arrays()
			re, err := FromArrays(tc.ref, tc.k, tc.w, entries, dir, locs)
			if err != nil {
				t.Fatal(err)
			}
			st := idx.Stats()
			if re.Stats() != st {
				t.Errorf("stats: built %+v, from arrays %+v", st, re.Stats())
			}
			if slots := len(dir) - 1; slots > max(len(entries), 1) && 2*tc.k-bits.Len(uint(slots-1))+int(idx.valBits) < 64 {
				t.Errorf("directory has %d slots for %d keys", slots, len(entries))
			}
			kept := keptPositions(tc.ref, tc.k, tc.w)
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
					if (kept == nil || kept[i]) && slices.Equal(tc.ref[i:i+tc.k], q) {
						want = append(want, int32(i))
					}
				}
				if got := lookup(idx, q); !slices.Equal(got, want) {
					t.Fatalf("Lookup(%v) = %v, want %v", q, got, want)
				}
				if got := lookup(re, q); !slices.Equal(got, want) {
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

// votesRead builds a k=1 table and a read whose hits are exactly the given
// votes per implied start (1 to 3 each). The read is unknown codes except
// A, C, T at offsets o, o+1, o+2; the reference is G except "A", "AC" or
// "ACT" at o+start, so each placement votes only for its own start.
// Placements of starts in ascending order must not overlap.
func votesRead(t *testing.T, votes map[int]int) (*Index, []byte) {
	t.Helper()
	const o = 40
	ref := make([]byte, 400)
	for i := range ref {
		ref[i] = 2
	}
	for start, v := range votes {
		copy(ref[o+start:], []byte{0, 1, 3}[:v])
	}
	idx, err := Build(ref, 1)
	if err != nil {
		t.Fatal(err)
	}
	read := make([]byte, o+3)
	for i := range read {
		read[i] = 4
	}
	copy(read[o:], []byte{0, 1, 3})
	return idx, read
}

// TestCandidateBinEdgeCases pins how votes become candidates where the
// drift bins meet their edges: start/16 truncates toward zero, so bin 0
// spans starts −15..15; starts −31..−16 form bin −1, whose anchor clamps
// to Pos 0 like bin 0's negative anchors, so two candidates can both
// report Pos 0; on equal votes within a bin the smaller exact start is the
// anchor; and candidates with equal votes are ranked by Pos.
func TestCandidateBinEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		votes map[int]int
		want  []Candidate
	}{
		{"bin 0 spans -15..15", map[int]int{-15: 1, 15: 2, 20: 1},
			[]Candidate{{Pos: 15, Votes: 3}, {Pos: 20, Votes: 1}}},
		{"negative bins clamp to 0", map[int]int{-32: 1, -31: 1, -16: 2, -10: 1},
			[]Candidate{{Pos: 0, Votes: 3}, {Pos: 0, Votes: 1}, {Pos: 0, Votes: 1}}},
		{"bin -1 ties bin 0 at Pos 0", map[int]int{-20: 2, -5: 1, 3: 1},
			[]Candidate{{Pos: 0, Votes: 2}, {Pos: 0, Votes: 2}}},
		{"equal votes in a bin: smaller start anchors", map[int]int{33: 1, 36: 2, 42: 2},
			[]Candidate{{Pos: 36, Votes: 5}}},
		{"equal votes rank by Pos", map[int]int{200: 1, 100: 1, 50: 1, 70: 2},
			[]Candidate{{Pos: 70, Votes: 2}, {Pos: 50, Votes: 1}, {Pos: 100, Votes: 1}, {Pos: 200, Votes: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idx, read := votesRead(t, tc.votes)
			var s SeedScratch
			for _, maxCands := range []int{0, 1, 2, len(tc.want), len(tc.want) + 1} {
				want := tc.want
				if maxCands > 0 && maxCands < len(want) {
					want = want[:maxCands]
				}
				if got := idx.CandidateLocationsInto(&s, read, maxCands, nil); !slices.Equal(got, want) {
					t.Errorf("cap %d: candidates %v, want %v", maxCands, got, want)
				}
			}
		})
	}
}

// TestFromArraysRejectsDisorder checks that FromArrays refuses entries out
// of key order within a slot, and a location past the reference.
func TestFromArraysRejectsDisorder(t *testing.T) {
	ref := testRef(3000, 19)
	idx, err := Build(ref, 11)
	if err != nil {
		t.Fatal(err)
	}
	entries, dir, locs := idx.Arrays()
	s := 0
	for dir[s+1]-dir[s] < 2 {
		s++
	}
	swapped := slices.Clone(entries)
	swapped[dir[s]], swapped[dir[s]+1] = swapped[dir[s]+1], swapped[dir[s]]
	if _, err := FromArrays(ref, 11, 0, swapped, dir, locs); err == nil {
		t.Error("FromArrays accepted a slot with its keys out of order")
	}
	if _, err := FromArrays(ref[:len(ref)-20], 11, 0, entries, dir, locs); err == nil {
		t.Error("FromArrays accepted locations past the reference")
	}
}
