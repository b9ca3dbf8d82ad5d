package mapper

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"genasm/internal/cigar"
	"genasm/internal/index"
	"genasm/internal/seq"
	"genasm/internal/simulate"
)

func buildTestData(t testing.TB, genomeLen, nReads int, p simulate.Profile, revComp bool) ([]byte, [][]byte, []int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(1234, 0))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(genomeLen))
	reads, err := simulate.Reads(rng, genome, nReads, p, revComp)
	if err != nil {
		t.Fatal(err)
	}
	rs := make([][]byte, len(reads))
	pos := make([]int, len(reads))
	for i, r := range reads {
		rs[i] = r.Seq
		pos[i] = r.Pos
	}
	return genome, rs, pos
}

// newMapper returns a Mapper over a hash index of genome with the default
// seed length.
func newMapper(t testing.TB, genome []byte, cfg Config) *Mapper {
	t.Helper()
	idx, err := index.Build(genome, 15)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(idx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMapShortReadsGenASM(t *testing.T) {
	genome, reads, pos := buildTestData(t, 200000, 40, simulate.Illumina100, false)
	m := newMapper(t, genome, Config{ErrorRate: 0.05})
	_, st, err := m.MapAll(reads, pos, 32)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mapped < 38 {
		t.Fatalf("mapped %d/40", st.Mapped)
	}
	if st.Correct < 36 {
		t.Fatalf("correct %d/40", st.Correct)
	}
}

func TestMapWithRevComp(t *testing.T) {
	genome, reads, pos := buildTestData(t, 100000, 30, simulate.Illumina150, true)
	m := newMapper(t, genome, Config{ErrorRate: 0.05})
	maps, st, err := m.MapAll(reads, pos, 32)
	if err != nil {
		t.Fatal(err)
	}
	if st.Correct < 26 {
		t.Fatalf("correct %d/30 with revcomp reads", st.Correct)
	}
	rc := 0
	for _, mp := range maps {
		if mp.RevComp {
			rc++
		}
	}
	if rc == 0 {
		t.Fatal("no reverse-complement mappings despite revcomp reads")
	}
}

func TestMapWithFilterReducesAlignments(t *testing.T) {
	// Good reads map at the first candidate either way; the filter's value
	// is eliminating candidate regions of reads that do NOT belong (here:
	// reads mutated far beyond the error budget), which otherwise all
	// reach the expensive alignment step.
	genome, goodReads, pos := buildTestData(t, 150000, 10, simulate.Illumina100, false)
	rng := rand.New(rand.NewPCG(77, 0))
	reads := append([][]byte(nil), goodReads...)
	truePos := append([]int(nil), pos...)
	for i := 0; i < 15; i++ {
		bad := append([]byte(nil), genome[1000*i:1000*i+100]...)
		for e := 0; e < 25; e++ { // 25% errors: far above the 5% budget
			p := rng.IntN(len(bad))
			bad[p] = (bad[p] + byte(1+rng.IntN(3))) % 4
		}
		reads = append(reads, bad)
		truePos = append(truePos, 1000*i)
	}

	noFilter := newMapper(t, genome, Config{ErrorRate: 0.05})
	withFilter := newMapper(t, genome, Config{ErrorRate: 0.05, Prefilter: true})
	mapsNo, stNo, err := noFilter.MapAll(reads, truePos, 32)
	if err != nil {
		t.Fatal(err)
	}
	mapsF, stF, err := withFilter.MapAll(reads, truePos, 32)
	if err != nil {
		t.Fatal(err)
	}
	if stF.Aligned >= stNo.Aligned {
		t.Fatalf("filter did not reduce alignments: %d vs %d", stF.Aligned, stNo.Aligned)
	}
	if stF.Filtered == 0 {
		t.Fatal("filter rejected nothing despite garbage reads")
	}
	// Accuracy is judged on the good reads only (the garbage reads are
	// beyond the error budget; whether they map is arbitrary).
	goodCorrect := func(maps []Mapping) int {
		n := 0
		for i := range goodReads {
			if maps[i].Mapped && abs(maps[i].Pos-truePos[i]) <= 32 {
				n++
			}
		}
		return n
	}
	if f, no := goodCorrect(mapsF), goodCorrect(mapsNo); f < no {
		t.Fatalf("filter hurt accuracy on good reads: %d vs %d", f, no)
	}
}

func TestMapAlignersAgree(t *testing.T) {
	genome, reads, pos := buildTestData(t, 100000, 15, simulate.Illumina100, false)
	for name, aligner := range map[string]Aligner{"GenASM": nil, "DP": DPAligner{}} {
		m := newMapper(t, genome, Config{ErrorRate: 0.05, Aligner: aligner})
		_, st, err := m.MapAll(reads, pos, 32)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Correct < 13 {
			t.Fatalf("%s: correct %d/15", name, st.Correct)
		}
	}
}

// TestConcurrentMapRead pins that a Mapper on the default pooled
// alignment step is safe to share: reads mapped from several goroutines at
// once match the serial mappings.
func TestConcurrentMapRead(t *testing.T) {
	genome, reads, _ := buildTestData(t, 100000, 16, simulate.Illumina100, true)
	m := newMapper(t, genome, Config{ErrorRate: 0.05, Prefilter: true})
	want := make([]Mapping, len(reads))
	for i, r := range reads {
		mp, err := m.MapRead(r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = mp
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range reads {
				mp, err := m.MapRead(r)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(mp, want[i]) {
					t.Errorf("read %d: concurrent %+v, serial %+v", i, mp, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMapLongReads(t *testing.T) {
	genome, reads, pos := buildTestData(t, 300000, 4, simulate.PacBio10, false)
	idx, err := index.Build(genome, 13)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(idx, Config{ErrorRate: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := m.MapAll(reads, pos, 64)
	if err != nil {
		t.Fatal(err)
	}
	if st.Correct < 3 {
		t.Fatalf("long reads correct %d/4", st.Correct)
	}
}

func TestMappingCigarValidates(t *testing.T) {
	genome, reads, _ := buildTestData(t, 100000, 10, simulate.Illumina250, false)
	m := newMapper(t, genome, Config{ErrorRate: 0.05})
	for i, r := range reads {
		mp, err := m.MapRead(r)
		if err != nil {
			t.Fatal(err)
		}
		if !mp.Mapped {
			continue
		}
		region := genome[mp.Pos:]
		if err := cigar.Validate(mp.Cigar, r, region, false); err != nil {
			t.Fatalf("read %d: invalid mapping CIGAR: %v", i, err)
		}
	}
}

func TestShortReadRejected(t *testing.T) {
	genome, _, _ := buildTestData(t, 50000, 1, simulate.Illumina100, false)
	m := newMapper(t, genome, Config{})
	if _, err := m.MapRead([]byte{0, 1, 2}); err == nil {
		t.Fatal("read shorter than seed should error")
	}
}

func TestMinimizerIndexMapping(t *testing.T) {
	genome, reads, pos := buildTestData(t, 150000, 20, simulate.Illumina150, false)
	idx, err := index.BuildMinimizer(genome, 15, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(idx, Config{ErrorRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := m.MapAll(reads, pos, 32)
	if err != nil {
		t.Fatal(err)
	}
	if st.Correct < 17 {
		t.Fatalf("minimizer mapping correct %d/20", st.Correct)
	}
}

func TestMapAllLengthMismatch(t *testing.T) {
	genome, reads, _ := buildTestData(t, 50000, 2, simulate.Illumina100, false)
	m := newMapper(t, genome, Config{})
	if _, _, err := m.MapAll(reads, []int{1}, 10); err == nil {
		t.Fatal("length mismatch should error")
	}
}

// TestNewRejectsBadConfig pins that New refuses an error rate outside
// [0, 1] or a negative candidate cap, with the filter on and off, instead
// of panicking, exhausting memory or silently mapping nothing per read.
func TestNewRejectsBadConfig(t *testing.T) {
	idx, err := index.Build(seq.Random(rand.New(rand.NewPCG(7, 0)), 5000), 15)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{ErrorRate: math.NaN()},
		{ErrorRate: -0.5},
		{ErrorRate: 1.5},
		{ErrorRate: 1e9},
		{MaxCandidates: -2},
	}
	for _, cfg := range bad {
		for _, filter := range []bool{false, true} {
			cfg.Prefilter = filter
			if _, err := New(idx, cfg); err == nil {
				t.Errorf("New(%+v) accepted an invalid config", cfg)
			}
		}
	}
	for _, cfg := range []Config{{}, {ErrorRate: 1, Prefilter: true}, {MaxCandidates: 1}} {
		if _, err := New(idx, cfg); err != nil {
			t.Errorf("New(%+v): %v", cfg, err)
		}
	}
}
