package genasm

import (
	"context"
	"errors"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"genasm/internal/cigar"
	"genasm/internal/dp"
	"genasm/internal/seq"
)

func newTestEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e, err := NewEngine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineAlignPaperExample(t *testing.T) {
	e := newTestEngine(t)
	aln, err := e.AlignGlobal(context.Background(), []byte("CGTGA"), []byte("CTGA"))
	if err != nil {
		t.Fatal(err)
	}
	if aln.CIGAR != "1=1D3=" || aln.Distance != 1 || aln.Matches != 4 {
		t.Errorf("aln = %+v", aln)
	}
	d, err := e.EditDistance(context.Background(), []byte("ACGTACGTAC"), []byte("ACGAACGTAC"))
	if err != nil || d != 1 {
		t.Fatalf("d=%d err=%v", d, err)
	}
}

// TestEngineMatchesAligner pins that a shared multi-workspace Engine,
// driven concurrently, produces exactly the output of a one-workspace
// Engine run sequentially.
func TestEngineMatchesAligner(t *testing.T) {
	texts, queries := poolTestPairs()
	ref := newTestEngine(t, WithMaxWorkspaces(1))
	want := make([]Alignment, len(texts))
	for i := range texts {
		var err error
		if want[i], err = ref.AlignGlobal(context.Background(), []byte(texts[i]), []byte(queries[i])); err != nil {
			t.Fatal(err)
		}
	}

	e := newTestEngine(t, WithMaxWorkspaces(3))
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(texts); i += workers {
				got, err := e.AlignGlobal(context.Background(), []byte(texts[i]), []byte(queries[i]))
				if err != nil {
					t.Error(err)
					return
				}
				if got.CIGAR != want[i].CIGAR || got.Distance != want[i].Distance ||
					got.Matches != want[i].Matches {
					t.Errorf("pair %d: engine (%s, %d) != sequential (%s, %d)",
						i, got.CIGAR, got.Distance, want[i].CIGAR, want[i].Distance)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := e.Stats(); st.InFlight != 0 {
		t.Errorf("in-flight=%d after all alignments, want 0", st.InFlight)
	}
}

// TestEngineContextCancellation saturates a capacity-1 engine with a slow
// alignment and pins that a canceled context is reported promptly instead
// of queueing behind the busy workspace.
func TestEngineContextCancellation(t *testing.T) {
	e := newTestEngine(t, WithMaxWorkspaces(1))

	// Occupy the only workspace with a slow alignment. Under heavy test
	// parallelism the observer goroutine can be descheduled for longer
	// than one alignment takes, so relaunch until one is actually seen
	// holding the workspace.
	long := []byte(strings.Repeat("ACGTTGCAATCGGATCGATTACAGGCTTAACG", 16384)) // 512 kbp
	mutated := []byte("T" + string(long[:len(long)-1]))
	var release chan struct{}
	acquired := false
	for attempt := 0; attempt < 10 && !acquired; attempt++ {
		release = make(chan struct{})
		go func(done chan struct{}) {
			defer close(done)
			if _, err := e.AlignGlobal(context.Background(), long, mutated); err != nil {
				t.Error(err)
			}
		}(release)
	observe:
		for {
			if e.Stats().InFlight > 0 {
				acquired = true
				break
			}
			select {
			case <-release:
				break observe // finished unobserved; relaunch
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	if !acquired {
		t.Fatal("slow alignment never observed in-flight")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := e.Align(ctx, []byte("ACGT"), []byte("ACGT")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", waited)
	}

	// The other front doors must honor the canceled context too.
	if _, err := e.EditDistance(ctx, []byte("ACGT"), []byte("ACGT")); !errors.Is(err, context.Canceled) {
		t.Errorf("EditDistance err = %v, want context.Canceled", err)
	}
	if _, err := e.Search(ctx, []byte("ACGT"), []byte("AC"), 0); !errors.Is(err, context.Canceled) {
		t.Errorf("Search err = %v, want context.Canceled", err)
	}
	if _, err := e.Filter(ctx, []byte("ACGT"), []byte("ACGT"), 1); !errors.Is(err, context.Canceled) {
		t.Errorf("Filter err = %v, want context.Canceled", err)
	}
	results, err := e.AlignBatch(ctx, []BatchJob{{Text: []byte("ACGT"), Query: []byte("ACGT")}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("AlignBatch err = %v, want context.Canceled", err)
	}
	if len(results) != 1 || !errors.Is(results[0].Err, context.Canceled) {
		t.Errorf("AlignBatch results = %+v, want per-job context.Canceled", results)
	}

	<-release
}

// TestParseAlphabetRoundTrip pins ParseAlphabet as the inverse of String
// over every alphabet, case-insensitively.
func TestParseAlphabetRoundTrip(t *testing.T) {
	for _, a := range []Alphabet{DNA, RNA, Protein, Bytes} {
		for _, name := range []string{a.String(), strings.ToLower(a.String()), strings.ToUpper(a.String())} {
			got, err := ParseAlphabet(name)
			if err != nil {
				t.Errorf("ParseAlphabet(%q): %v", name, err)
				continue
			}
			if got != a {
				t.Errorf("ParseAlphabet(%q) = %v, want %v", name, got, a)
			}
			if got.String() != a.String() {
				t.Errorf("round trip %q -> %v -> %q", name, got, got.String())
			}
		}
	}
	if _, err := ParseAlphabet("klingon"); err == nil {
		t.Error("unknown alphabet should not parse")
	}
}

// TestUnknownAlphabetRejected pins that an Alphabet outside the four named
// ones is refused by NewEngine instead of aligning as DNA, and prints as
// Alphabet(n) instead of "DNA".
func TestUnknownAlphabetRejected(t *testing.T) {
	for _, a := range []Alphabet{-1, 4, 7} {
		if _, err := NewEngine(WithAlphabet(a)); err == nil {
			t.Errorf("NewEngine(WithAlphabet(%d)) accepted an unknown alphabet", int(a))
		}
		if _, err := NewEngine(WithConfig(Config{Alphabet: a})); err == nil {
			t.Errorf("NewEngine(WithConfig) accepted unknown alphabet %d", int(a))
		}
	}
	if got := Alphabet(7).String(); got != "Alphabet(7)" {
		t.Errorf("Alphabet(7).String() = %q, want %q", got, "Alphabet(7)")
	}
}

// TestEngineEditDistanceBothOrders pins EditDistance against the dp oracle
// with the arguments in both orders, and the empty cases: the distance to
// an empty sequence is the other sequence's length, whichever side is
// empty, once both have passed the alphabet check. The windowed distance
// is an upper bound on the true one (exact on most pairs) and always the
// distance AlignGlobal reports.
func TestEngineEditDistanceBothOrders(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(2026, 19))
	exact := 0
	for i := 0; i < 40; i++ {
		enc := seq.Random(rng, 20+rng.IntN(400))
		a, b := alphabetDecode(enc), alphabetDecode(mutateBench(rng, enc, 0.05))
		truth := dp.EditDistance(a, b)
		for _, p := range [][2][]byte{{a, b}, {b, a}} {
			got, err := e.EditDistance(ctx, p[0], p[1])
			if err != nil {
				t.Fatalf("pair %d: %v", i, err)
			}
			aln, err := e.AlignGlobal(ctx, p[0], p[1])
			if err != nil {
				t.Fatalf("pair %d: %v", i, err)
			}
			if got < truth || got != aln.Distance {
				t.Fatalf("pair %d: EditDistance(%d bp, %d bp) = %d; dp %d, AlignGlobal %d",
					i, len(p[0]), len(p[1]), got, truth, aln.Distance)
			}
			if got == truth {
				exact++
			}
		}
	}
	if exact < 72 {
		t.Errorf("only %d/80 distances exact", exact)
	}
	for _, c := range []struct {
		a, b string
		want int
	}{{"", "ACG", 3}, {"ACG", "", 3}, {"", "", 0}} {
		if got, err := e.EditDistance(ctx, []byte(c.a), []byte(c.b)); err != nil || got != c.want {
			t.Errorf("EditDistance(%q, %q) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
	var ae *AlphabetError
	if _, err := e.EditDistance(ctx, nil, []byte("ACN")); !errors.As(err, &ae) {
		t.Errorf("EditDistance(\"\", \"ACN\") err = %v, want *AlphabetError", err)
	}
}

// TestEngineStatsWorkspaceBytes pins that pool stats report the
// per-workspace footprint. (The kernel layouts' footprint ratio is pinned
// in internal/core by TestScroogeFootprintReduction.)
func TestEngineStatsWorkspaceBytes(t *testing.T) {
	if b := newTestEngine(t).Stats().WorkspaceBytes; b <= 0 {
		t.Fatalf("workspace bytes not reported: %d", b)
	}
}

// TestEngineSearchAscendingSharedPath pins that both the per-call and the
// compiled search return identical, ascending matches.
func TestEngineSearchAscendingSharedPath(t *testing.T) {
	e := newTestEngine(t, WithAlphabet(Bytes))
	text := []byte("the quick brown fox jumps over the quick lazy dog")
	pattern := []byte("quick")

	perCall, err := e.Search(context.Background(), text, pattern, 1)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := e.Compile(pattern, 1)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := cp.Search(context.Background(), text)
	if err != nil {
		t.Fatal(err)
	}
	if len(perCall) == 0 {
		t.Fatal("no matches")
	}
	if len(perCall) != len(compiled) {
		t.Fatalf("per-call %d matches, compiled %d", len(perCall), len(compiled))
	}
	for i := range perCall {
		if perCall[i] != compiled[i] {
			t.Errorf("match %d: per-call %+v != compiled %+v", i, perCall[i], compiled[i])
		}
		if i > 0 && perCall[i].Pos < perCall[i-1].Pos {
			t.Fatal("matches not in ascending position order")
		}
	}
}

// TestEngineFilterAlphabet pins that Filter respects the engine's alphabet
// instead of hardcoding DNA, and surfaces mismatches as *AlphabetError.
func TestEngineFilterAlphabet(t *testing.T) {
	protein := newTestEngine(t, WithAlphabet(Protein))
	seq := []byte("MKTAYIAKQRQISFVKSHFSRQLEERLGLIEV")
	ok, err := protein.Filter(context.Background(), seq, seq, 2)
	if err != nil || !ok {
		t.Fatalf("identical protein pair rejected: ok=%v err=%v", ok, err)
	}

	dna := newTestEngine(t)
	_, err = dna.Filter(context.Background(), []byte("ACGT"), []byte("ACNT"), 2)
	var ae *AlphabetError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *AlphabetError", err)
	}
	if ae.Alphabet != DNA || ae.Input != "read" {
		t.Errorf("AlphabetError = %+v", ae)
	}

	// Scratch reuse across differently-shaped patterns must not corrupt
	// results: alternate short/long filters through the same engine.
	region := []byte(strings.Repeat("ACGTTGCAATCGGATCGATTACAGGCTTAACG", 8))
	for i := 0; i < 10; i++ {
		read := region[:32+(i%3)*100]
		ok, err := dna.Filter(context.Background(), region, read, 2)
		if err != nil || !ok {
			t.Fatalf("iteration %d: exact prefix rejected: ok=%v err=%v", i, ok, err)
		}
		bad := []byte(strings.Repeat("T", len(read)))
		ok, err = dna.Filter(context.Background(), region, bad, 2)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("iteration %d: dissimilar pair accepted", i)
		}
	}
}

// TestEngineAlphabetErrors pins the typed error across every front door.
func TestEngineAlphabetErrors(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	var ae *AlphabetError

	if _, err := e.Align(ctx, []byte("ACXT"), []byte("ACGT")); !errors.As(err, &ae) {
		t.Errorf("Align: %v", err)
	}
	if _, err := e.Search(ctx, []byte("ACGT"), []byte("AC!T"), 1); !errors.As(err, &ae) {
		t.Errorf("Search: %v", err)
	}
	if _, err := e.Compile([]byte("AC!T"), 1); !errors.As(err, &ae) {
		t.Errorf("Compile: %v", err)
	}
	if _, err := e.NewMapper([]byte("ACGTNACGT"), MapperConfig{}); !errors.As(err, &ae) {
		t.Errorf("NewMapper: %v", err)
	}
}

// TestCompiledPatternConcurrent hammers one compiled pattern from many
// goroutines (run with -race) and pins result equality with per-call
// Search.
func TestCompiledPatternConcurrent(t *testing.T) {
	e := newTestEngine(t)
	text := []byte(strings.Repeat("ACGTTGCAATCGGATCGATTACAGGCTTAACG", 64))
	pattern := []byte("TTACAGGC")

	want, err := e.Search(context.Background(), text, pattern, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no matches")
	}
	cp, err := e.Compile(pattern, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := cp.Search(context.Background(), text)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != len(want) {
					t.Errorf("compiled %d matches, want %d", len(got), len(want))
					return
				}
				for j := range got {
					if got[j] != want[j] {
						t.Errorf("match %d: %+v != %+v", j, got[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCompiledPatternFilter pins compiled filtering against Engine.Filter.
func TestCompiledPatternFilter(t *testing.T) {
	e := newTestEngine(t)
	region := []byte(strings.Repeat("ACGTTGCAATCGGATCGATTACAGGCTTAACG", 4))
	read := append([]byte(nil), region[:100]...)
	read[50] = 'T'

	cp, err := e.Compile(read, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		region []byte
		want   bool
	}{
		{region, true},
		{[]byte(strings.Repeat("G", len(region))), false},
	} {
		wantOK, err := e.Filter(context.Background(), tc.region, read, 3)
		if err != nil {
			t.Fatal(err)
		}
		if wantOK != tc.want {
			t.Fatalf("Engine.Filter = %v, want %v", wantOK, tc.want)
		}
		got, err := cp.Filter(context.Background(), tc.region)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantOK {
			t.Errorf("compiled filter = %v, engine filter = %v", got, wantOK)
		}
	}
}

// TestEngineAlignBatch pins order, per-job errors and pool sharing.
func TestEngineAlignBatch(t *testing.T) {
	e := newTestEngine(t, WithMaxWorkspaces(2), WithSearchStart(true))
	jobs := []BatchJob{
		{Text: []byte("CGTGA"), Query: []byte("CTGA"), Global: true},
		{Text: []byte("ACGT"), Query: []byte("ACNT")}, // bad letters
		{Text: []byte("TTTTACGTACGTTTTT"), Query: []byte("ACGTACGT")},
	}
	res, err := e.AlignBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].Err != nil || res[0].Alignment.Distance != 1 {
		t.Errorf("job 0: %+v", res[0])
	}
	var ae *AlphabetError
	if !errors.As(res[1].Err, &ae) {
		t.Errorf("job 1 err = %v, want *AlphabetError", res[1].Err)
	}
	if res[2].Err != nil || res[2].Alignment.Distance != 0 || res[2].Alignment.TextStart != 4 {
		t.Errorf("job 2: %+v", res[2])
	}
	if st := e.Stats(); st.InFlight != 0 {
		t.Errorf("in-flight=%d after batch, want 0", st.InFlight)
	}
}

// TestSearchStartLeavesGlobalAnchored pins that SearchStart changes only
// semi-global alignment: on a SearchStart engine, EditDistance,
// AlignGlobal and global AlignBatch jobs equal the anchored engine's
// results and start at the first text letter, while a semi-global
// alignment of the same pair still skips the leading text.
func TestSearchStartLeavesGlobalAnchored(t *testing.T) {
	ctx := context.Background()
	text, query := []byte("TTTTTTTTACGTACGTAC"), []byte("ACGTACGTAC")
	anchored := newTestEngine(t)
	search := newTestEngine(t, WithSearchStart(true))

	want, err := anchored.AlignGlobal(ctx, text, query)
	if err != nil {
		t.Fatal(err)
	}
	if want.Distance != 8 || want.TextStart != 0 {
		t.Fatalf("anchored AlignGlobal: distance %d from %d, want 8 from 0", want.Distance, want.TextStart)
	}
	if d, err := search.EditDistance(ctx, text, query); err != nil || d != want.Distance {
		t.Errorf("SearchStart EditDistance = %d (%v), want %d", d, err, want.Distance)
	}
	same := func(a Alignment) bool {
		return a.CIGAR == want.CIGAR && a.Distance == want.Distance && a.TextStart == want.TextStart && a.TextEnd == want.TextEnd
	}
	got, err := search.AlignGlobal(ctx, text, query)
	if err != nil || !same(got) {
		t.Errorf("SearchStart AlignGlobal = %+v (%v), want %+v", got, err, want)
	}
	res, err := search.AlignBatch(ctx, []BatchJob{
		{Text: text, Query: query, Global: true},
		{Text: text, Query: query},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || !same(res[0].Alignment) {
		t.Errorf("SearchStart global batch job = %+v, want %+v", res[0], want)
	}
	if semi := res[1].Alignment; res[1].Err != nil || semi.Distance != 0 || semi.TextStart != 8 {
		t.Errorf("SearchStart semi-global batch job = %+v, want distance 0 from 8", res[1])
	}
}

// TestMapperSharesEnginePool pins that a Mapper's alignment step draws
// from its Engine's workspace pool: mapping moves the engine's pool
// counters and never grows it past the engine's capacity.
func TestMapperSharesEnginePool(t *testing.T) {
	e := newTestEngine(t, WithMaxWorkspaces(1))
	ref := make([]byte, 4096)
	state := uint64(2030)
	for i := range ref {
		state = state*6364136223846793005 + 1442695040888963407
		ref[i] = "ACGT"[state>>62]
	}
	m, err := e.NewMapper(ref, MapperConfig{})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	reads := []Read{{Name: "r0", Seq: ref[100:250]}, {Name: "r1", Seq: ref[2000:2150]}}
	mappings, err := m.MapReads(context.Background(), reads)
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range mappings {
		if !mp.Mapped {
			t.Fatalf("read %s did not map", mp.Name)
		}
	}
	after := e.Stats()
	if got := (after.Hits + after.Misses) - (before.Hits + before.Misses); got < uint64(len(reads)) {
		t.Errorf("engine pool served %d checkouts for %d mapped reads, want at least one each", got, len(reads))
	}
	if e.Capacity() != 1 || after.Capacity != 1 || after.InFlight != 0 {
		t.Errorf("capacity %d (stats %d), in flight %d; want 1, 1, 0", e.Capacity(), after.Capacity, after.InFlight)
	}
}

// TestEngineMapper runs the public read-mapping pipeline end to end on a
// tiny deterministic reference.
func TestEngineMapper(t *testing.T) {
	e := newTestEngine(t, WithSearchStart(true))
	// Deterministic pseudo-random reference: repeats would make the
	// planted read map ambiguously.
	ref := make([]byte, 4096)
	state := uint64(2020)
	for i := range ref {
		state = state*6364136223846793005 + 1442695040888963407
		ref[i] = "ACGT"[state>>62]
	}

	readLen := 100
	readStart := 512
	read := append([]byte(nil), ref[readStart:readStart+readLen]...)
	read[40] = "ACGT"[(strings.IndexByte("ACGT", read[40])+1)%4]

	m, err := e.NewMapper(ref, MapperConfig{Prefilter: true, RefName: "chrT"})
	if err != nil {
		t.Fatal(err)
	}
	mappings, err := m.MapReads(context.Background(), []Read{{Name: "r0", Seq: read}})
	if err != nil {
		t.Fatal(err)
	}
	mp := mappings[0]
	if !mp.Mapped {
		t.Fatal("read did not map")
	}
	if diff := mp.Pos - readStart; diff < -8 || diff > 8 {
		t.Errorf("mapped at %d, planted at %d", mp.Pos, readStart)
	}
	if mp.Distance > 2 {
		t.Errorf("distance %d, want <= 2", mp.Distance)
	}

	// The CIGAR strings are rendered from the kept runs on demand: the
	// extended one carries the distance, the classic one is its M/I/D
	// form and the one the SAM record holds.
	if c, err := cigar.Parse(mp.CIGAR()); err != nil || c.EditDistance() != mp.Distance || c.Format(false) != mp.ClassicCIGAR() {
		t.Errorf("CIGAR() %q, ClassicCIGAR() %q, distance %d (%v)", mp.CIGAR(), mp.ClassicCIGAR(), mp.Distance, err)
	}
	if unmapped := (ReadMapping{Name: "u"}); unmapped.CIGAR() != "" || unmapped.ClassicCIGAR() != "" {
		t.Errorf("unmapped read: CIGAR() %q, ClassicCIGAR() %q, want empty", unmapped.CIGAR(), unmapped.ClassicCIGAR())
	}

	var sb strings.Builder
	if err := m.WriteSAM(&sb, mappings); err != nil {
		t.Fatal(err)
	}
	sam := sb.String()
	if !strings.Contains(sam, "SN:chrT") || !strings.Contains(sam, "r0\t") {
		t.Errorf("SAM output missing header or record:\n%s", sam)
	}
	if !strings.Contains(sam, "\t"+mp.ClassicCIGAR()+"\t") {
		t.Errorf("SAM record lacks ClassicCIGAR() %q:\n%s", mp.ClassicCIGAR(), sam)
	}

	// Non-DNA engines must refuse to map.
	if _, err := newTestEngine(t, WithAlphabet(Protein)).NewMapper(ref, MapperConfig{}); err == nil {
		t.Error("protein engine should refuse NewMapper")
	}

	// One-shot convenience.
	oneShot, err := e.Map(context.Background(), ref, []Read{{Name: "r0", Seq: read}})
	if err != nil {
		t.Fatal(err)
	}
	if !oneShot[0].Mapped || oneShot[0].Pos != mp.Pos {
		t.Errorf("Engine.Map = %+v, want pos %d", oneShot[0], mp.Pos)
	}
}
