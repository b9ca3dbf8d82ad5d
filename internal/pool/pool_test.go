package pool

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"genasm/internal/alphabet"
	"genasm/internal/core"
	"genasm/internal/faults"
	"genasm/internal/seq"
)

// testPairs builds n (text, pattern) pairs with planted errors.
func testPairs(n int) (texts, patterns [][]byte) {
	rng := rand.New(rand.NewPCG(42, uint64(n)))
	for i := 0; i < n; i++ {
		t := seq.Random(rng, 200+rng.IntN(400))
		p := append([]byte(nil), t[:len(t)-rng.IntN(40)]...)
		for e := 0; e < 1+rng.IntN(12); e++ {
			pos := rng.IntN(len(p))
			p[pos] = byte((int(p[pos]) + 1 + rng.IntN(3)) % 4)
		}
		texts = append(texts, t)
		patterns = append(patterns, p)
	}
	return texts, patterns
}

func TestBadConfigFailsAtNew(t *testing.T) {
	_, err := New(Config{Core: core.Config{WindowSize: 1}})
	if err == nil {
		t.Fatal("expected error for invalid core config")
	}
}

func TestGetPutReuse(t *testing.T) {
	p, err := New(Config{MaxWorkspaces: 2})
	if err != nil {
		t.Fatal(err)
	}
	ws := p.Get()
	if ws == nil {
		t.Fatal("nil workspace")
	}
	p.Put(ws)
	ws2 := p.Get()
	if ws2 != ws {
		t.Error("expected the freed workspace to be reused")
	}
	p.Put(ws2)
	st := p.Stats()
	// New seeds one workspace, so both Gets hit the free list.
	if st.Hits != 2 || st.Misses != 0 {
		t.Errorf("hits=%d misses=%d, want 2/0", st.Hits, st.Misses)
	}
	if st.InFlight != 0 || st.Idle != 1 {
		t.Errorf("in-flight=%d idle=%d, want 0/1", st.InFlight, st.Idle)
	}
}

func TestLazyGrowthStopsAtCap(t *testing.T) {
	p, err := New(Config{MaxWorkspaces: 3})
	if err != nil {
		t.Fatal(err)
	}
	var out []*core.Workspace
	for i := 0; i < 3; i++ {
		out = append(out, p.Get())
	}
	st := p.Stats()
	if st.InFlight != 3 {
		t.Errorf("in-flight=%d, want 3", st.InFlight)
	}
	if st.Misses != 2 { // one workspace was seeded at New
		t.Errorf("misses=%d, want 2", st.Misses)
	}

	// The cap is reached: a fourth Get must block until a Put.
	got := make(chan *core.Workspace)
	go func() { got <- p.Get() }()
	select {
	case <-got:
		t.Fatal("Get returned beyond MaxWorkspaces")
	case <-time.After(20 * time.Millisecond):
	}
	p.Put(out[0])
	select {
	case ws := <-got:
		p.Put(ws)
	case <-time.After(time.Second):
		t.Fatal("Get did not unblock after Put")
	}
	p.Put(out[1])
	p.Put(out[2])
}

func TestGetContextCancel(t *testing.T) {
	p, err := New(Config{MaxWorkspaces: 1})
	if err != nil {
		t.Fatal(err)
	}
	ws := p.Get()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.GetContext(ctx); err != context.DeadlineExceeded {
		t.Errorf("err=%v, want DeadlineExceeded", err)
	}
	p.Put(ws)
	if st := p.Stats(); st.InFlight != 0 {
		t.Errorf("in-flight=%d after canceled Get, want 0", st.InFlight)
	}
}

// TestConcurrentMatchesSerial pins that a small pool hammered by many
// goroutines produces exactly the single-threaded Workspace's output.
func TestConcurrentMatchesSerial(t *testing.T) {
	const nJobs = 200
	texts, patterns := testPairs(nJobs)

	serial := core.MustNew(core.Config{})
	want := make([]core.Alignment, nJobs)
	for i := range texts {
		aln, err := serial.AlignGlobal(texts[i], patterns[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = aln.Clone() // retained across serial's further alignments
	}

	p, err := New(Config{MaxWorkspaces: 3})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nJobs; i += workers {
				err := p.Do(context.Background(), func(ws *core.Workspace) error {
					aln, err := ws.AlignGlobal(texts[i], patterns[i])
					if err != nil {
						return err
					}
					if aln.Distance != want[i].Distance || aln.Cigar.String() != want[i].Cigar.String() {
						t.Errorf("job %d: got (%d, %s), want (%d, %s)",
							i, aln.Distance, aln.Cigar, want[i].Distance, want[i].Cigar)
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.InFlight != 0 {
		t.Errorf("in-flight=%d after all Puts, want 0", st.InFlight)
	}
	if st.Hits+st.Misses != nJobs {
		t.Errorf("hits+misses=%d, want %d", st.Hits+st.Misses, nJobs)
	}
}

// TestStress hammers a tiny pool from many goroutines; run with -race.
func TestStress(t *testing.T) {
	p, err := New(Config{MaxWorkspaces: 2})
	if err != nil {
		t.Fatal(err)
	}
	text := alphabet.DNA.MustEncode([]byte("TTACGGATCGTTGCAATCGGATCGATTACAGGCTTAACGGATCCTAGGACCAG"))
	pattern := alphabet.DNA.MustEncode([]byte("TTACGGATCGTTGCTATCGGATCGATTACAGGCTTAACGGATCCTAGGACAG"))
	wantAln, err := core.MustNew(core.Config{}).AlignGlobal(text, pattern)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 32
	iters := 100
	if testing.Short() {
		iters = 20
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ws := p.Get()
				aln, err := ws.AlignGlobal(text, pattern)
				if err != nil {
					t.Error(err)
				} else if aln.Distance != wantAln.Distance {
					t.Errorf("distance=%d, want %d", aln.Distance, wantAln.Distance)
				}
				p.Put(ws)
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.InFlight != 0 {
		t.Errorf("in-flight=%d, want 0", st.InFlight)
	}
	if st.Idle > 2 {
		t.Errorf("idle=%d exceeds MaxWorkspaces=2", st.Idle)
	}
}

// TestDoPanicQuarantine pins the panic-isolation boundary: a panic inside
// Do is recovered as a *core.PanicError, the workspace is quarantined
// (never re-listed), and the capacity token is released so the pool keeps
// serving at full capacity afterwards.
func TestDoPanicQuarantine(t *testing.T) {
	p, err := New(Config{MaxWorkspaces: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = p.Do(context.Background(), func(ws *core.Workspace) error {
		panic("kernel corrupted")
	})
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Do after panic = %v (%T), want *core.PanicError", err, err)
	}
	if pe.Site != "align" || pe.Value != "kernel corrupted" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = {Site:%q Value:%v Stack:%d bytes}", pe.Site, pe.Value, len(pe.Stack))
	}
	st := p.Stats()
	if st.Quarantined != 1 || st.InFlight != 0 {
		t.Fatalf("Stats after quarantine = %+v, want Quarantined=1 InFlight=0", st)
	}
	// Full capacity still available: check out both workspaces at once.
	ws1 := p.Get()
	ws2 := p.Get()
	if ws1 == nil || ws2 == nil || ws1 == ws2 {
		t.Fatal("pool lost capacity after quarantine")
	}
	// And they still align.
	if _, err := ws1.Align(alphabet.DNA.MustEncode([]byte("ACGTACGT")), alphabet.DNA.MustEncode([]byte("ACGT"))); err != nil {
		t.Fatalf("align on post-quarantine workspace: %v", err)
	}
	p.Put(ws1)
	p.Put(ws2)
}

// TestDoInjectedPanicSite pins that an injected panic carries its fault
// site name into the PanicError.
func TestDoInjectedPanicSite(t *testing.T) {
	t.Cleanup(faults.Disable)
	if err := faults.Enable("workspace.acquire:panic#1"); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{MaxWorkspaces: 1})
	if err != nil {
		t.Fatal(err)
	}
	derr := p.Do(context.Background(), func(ws *core.Workspace) error { return nil })
	var pe *core.PanicError
	if !errors.As(derr, &pe) || pe.Site != "workspace.acquire" {
		t.Fatalf("Do = %v, want PanicError at workspace.acquire", derr)
	}
	// Rule exhausted (#1): the pool works again.
	if err := p.Do(context.Background(), func(ws *core.Workspace) error { return nil }); err != nil {
		t.Fatalf("Do after exhausted fault = %v", err)
	}
}

// TestDoClearsContext pins that Do installs the context for the duration
// of f and clears it before the workspace is re-listed.
func TestDoClearsContext(t *testing.T) {
	p, err := New(Config{MaxWorkspaces: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	text := alphabet.DNA.MustEncode([]byte("ACGTACGT"))
	err = p.Do(ctx, func(ws *core.Workspace) error {
		cancel()
		_, aerr := ws.Align(text, text)
		return aerr
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do with mid-flight cancel = %v, want context.Canceled", err)
	}
	// The same (sole) workspace must have a cleared context now.
	if err := p.Do(context.Background(), func(ws *core.Workspace) error {
		_, aerr := ws.Align(text, text)
		return aerr
	}); err != nil {
		t.Fatalf("Do after cancel = %v (stale workspace context?)", err)
	}
}
