package genasm

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
)

func TestAlignBatchPublic(t *testing.T) {
	jobs := []BatchJob{
		{Text: []byte("CGTGA"), Query: []byte("CTGA"), Global: true},
		{Text: []byte("ACGTACGT"), Query: []byte("ACGTACGT"), Global: true},
		{Text: []byte("TTTTACGTACGTTTTT"), Query: []byte("ACGTACGT")},
	}
	e := newTestEngine(t, WithSearchStart(true), WithMaxWorkspaces(2))
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
	if res[1].Err != nil || res[1].Alignment.Distance != 0 {
		t.Errorf("job 1: %+v", res[1])
	}
	if res[2].Err != nil || res[2].Alignment.Distance != 0 || res[2].Alignment.TextStart != 4 {
		t.Errorf("job 2: %+v", res[2])
	}
}

// TestAlignBatchPublicInvalidLetters pins the per-job error contract: one
// unencodable job is reported in its own BatchResult.Err (as a typed
// *AlphabetError) and the rest of the batch still aligns.
func TestAlignBatchPublicInvalidLetters(t *testing.T) {
	jobs := []BatchJob{
		{Text: []byte("ACGT"), Query: []byte("ACNX")},
		{Text: []byte("CGTGA"), Query: []byte("CTGA"), Global: true},
	}
	res, err := newTestEngine(t, WithMaxWorkspaces(1)).AlignBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil {
		t.Fatal("invalid letters should fail the job")
	}
	var ae *AlphabetError
	if !errors.As(res[0].Err, &ae) {
		t.Fatalf("job 0 error %v is not an *AlphabetError", res[0].Err)
	}
	if res[1].Err != nil || res[1].Alignment.Distance != 1 {
		t.Errorf("healthy job poisoned by its neighbour: %+v", res[1])
	}
}

func TestAlignBatchPublicEmpty(t *testing.T) {
	res, err := newTestEngine(t, WithMaxWorkspaces(4)).AlignBatch(context.Background(), nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestAlignBatchMatchesSingle(t *testing.T) {
	e := newTestEngine(t, WithMaxWorkspaces(1))
	ctx := context.Background()
	text := []byte("ACGGATCGATTACAGGCTTAACGGATCCTAGG")
	query := []byte("ACGGATCGATTACAGGCTTAACGGATCCTAGG")
	query[10] = 'T'
	want, err := e.AlignGlobal(ctx, text, query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.AlignBatch(ctx, []BatchJob{{Text: text, Query: query, Global: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Alignment.CIGAR != want.CIGAR {
		t.Fatalf("batch %s vs single %s", res[0].Alignment.CIGAR, want.CIGAR)
	}
}

// makeBatchJobs draws n random DNA jobs whose queries carry about 3% edits,
// alternating end-to-end and semi-global alignment.
func makeBatchJobs(n int, seed uint64) []BatchJob {
	rng := rand.New(rand.NewPCG(seed, 0))
	jobs := make([]BatchJob, n)
	for i := range jobs {
		text := make([]byte, 80+rng.IntN(200))
		for j := range text {
			text[j] = byte(rng.IntN(4))
		}
		query := mutateBench(rng, text, 0.03)
		jobs[i] = BatchJob{Text: alphabetDecode(text), Query: alphabetDecode(query), Global: i%2 == 0}
	}
	return jobs
}

func TestAlignBatchMatchesSerial(t *testing.T) {
	ctx := context.Background()
	jobs := makeBatchJobs(60, 11)
	e, err := NewEngine(WithMaxWorkspaces(4))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := e.AlignBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		align := e.Align
		if job.Global {
			align = e.AlignGlobal
		}
		want, err := align(ctx, job.Text, job.Query)
		if err != nil {
			t.Fatal(err)
		}
		got := parallel[i]
		if got.Err != nil {
			t.Fatalf("job %d: %v", i, got.Err)
		}
		if got.Alignment.CIGAR != want.CIGAR {
			t.Fatalf("job %d: parallel %s vs serial %s", i, got.Alignment.CIGAR, want.CIGAR)
		}
		if got.Alignment.Distance != want.Distance {
			t.Fatalf("job %d: distance %d vs %d", i, got.Alignment.Distance, want.Distance)
		}
	}
}

func TestAlignBatchWorkerCounts(t *testing.T) {
	jobs := makeBatchJobs(10, 12)
	for _, workers := range []int{0, 1, 2, 16, 100} {
		e, err := NewEngine(WithMaxWorkspaces(workers))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.AlignBatch(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(jobs) {
			t.Fatalf("workers=%d: %d results", workers, len(res))
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, r.Err)
			}
		}
	}
}

func TestAlignBatchEmpty(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if res, err := e.AlignBatch(context.Background(), nil); err != nil || len(res) != 0 {
		t.Fatalf("expected empty results, got %d (err %v)", len(res), err)
	}
}

// TestAlignBatchBadConfig checks that an invalid configuration is refused
// when the engine is built, before any batch can run.
func TestAlignBatchBadConfig(t *testing.T) {
	if _, err := NewEngine(WithConfig(Config{WindowSize: 1})); err == nil {
		t.Error("NewEngine accepted an invalid config")
	}
}

func TestAlignBatchJobErrors(t *testing.T) {
	e, err := NewEngine(WithMaxWorkspaces(2))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []BatchJob{
		{Text: []byte("ACG"), Query: []byte("CG")},
		{Text: []byte("ACG"), Query: nil},           // empty query errors
		{Text: []byte("ACG"), Query: []byte("CGZ")}, // invalid letter errors
	}
	res, err := e.AlignBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatalf("job 0 should succeed: %v", res[0].Err)
	}
	if res[1].Err == nil || res[2].Err == nil {
		t.Fatal("jobs 1 and 2 should fail")
	}
}
