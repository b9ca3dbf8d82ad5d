package genasm

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// poolTestPairs builds deterministic letter-space pairs with known edits.
func poolTestPairs() (texts, queries []string) {
	base := strings.Repeat("ACGTTGCAATCGGATCGATTACAGGCTTAACG", 8)
	for i := 0; i < 50; i++ {
		text := base[:len(base)-i]
		q := []byte(text)
		for e := 0; e <= i%7; e++ {
			pos := (e*31 + i*17) % len(q)
			q[pos] = "ACGT"[(strings.IndexByte("ACGT", q[pos])+1)%4]
		}
		texts = append(texts, text)
		queries = append(queries, string(q))
	}
	return texts, queries
}

// TestPoolMatchesAligner pins that workspaces recycled by a contended
// pool carry no state between pairs: eight workers share two workspaces
// across pairs of differing lengths, and every alignment and edit
// distance must equal a fresh one-workspace engine's.
func TestPoolMatchesAligner(t *testing.T) {
	ctx := context.Background()
	texts, queries := poolTestPairs()
	ref := newTestEngine(t, WithMaxWorkspaces(1))
	want := make([]Alignment, len(texts))
	for i := range texts {
		var err error
		if want[i], err = ref.AlignGlobal(ctx, []byte(texts[i]), []byte(queries[i])); err != nil {
			t.Fatal(err)
		}
	}

	p := newTestEngine(t, WithMaxWorkspaces(2), WithShards(1))
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Walk the pairs in a different order per worker so each
			// workspace alternates between long and short pairs.
			for k := 0; k < len(texts); k++ {
				i := (k*7 + w*13) % len(texts)
				got, err := p.AlignGlobal(ctx, []byte(texts[i]), []byte(queries[i]))
				if err != nil {
					t.Error(err)
					return
				}
				if got.CIGAR != want[i].CIGAR || got.Distance != want[i].Distance ||
					got.Matches != want[i].Matches {
					t.Errorf("pair %d: pool (%s, %d) != one-workspace (%s, %d)",
						i, got.CIGAR, got.Distance, want[i].CIGAR, want[i].Distance)
				}
				d, err := p.EditDistance(ctx, []byte(texts[i]), []byte(queries[i]))
				if err != nil {
					t.Error(err)
					return
				}
				if d != want[i].Distance {
					t.Errorf("pair %d: pool distance %d != %d", i, d, want[i].Distance)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := p.Stats(); st.InFlight != 0 {
		t.Errorf("in-flight=%d after all alignments, want 0", st.InFlight)
	}
}

// TestPoolSemiGlobal pins that a default-sized engine aligns
// semi-globally exactly like a one-workspace engine.
func TestPoolSemiGlobal(t *testing.T) {
	ctx := context.Background()
	text := []byte("TTACGGATCGTTGCAATCGGATCGATTACAGG")
	query := []byte("TTACGGATCGTTGCAATCGG")
	want, err := newTestEngine(t, WithMaxWorkspaces(1)).Align(ctx, text, query)
	if err != nil {
		t.Fatal(err)
	}
	got, err := newTestEngine(t).Align(ctx, text, query)
	if err != nil {
		t.Fatal(err)
	}
	if got.CIGAR != want.CIGAR || got.TextEnd != want.TextEnd {
		t.Errorf("pooled %+v != one-workspace %+v", got, want)
	}
}

func TestPoolRejectsBadInput(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	if _, err := e.Align(ctx, []byte("ACXT"), []byte("ACGT")); err == nil {
		t.Error("expected encode error for bad text")
	}
	if _, err := e.Align(ctx, []byte("ACGT"), nil); err == nil {
		t.Error("expected error for empty query")
	}
	if _, err := NewEngine(WithWindow(1, 0)); err == nil {
		t.Error("expected error for invalid window size")
	}
}

// TestEditDistanceConcurrent exercises the shared DefaultEngine from many
// goroutines.
func TestEditDistanceConcurrent(t *testing.T) {
	e := defaultTestEngine(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				d, err := e.EditDistance(context.Background(), []byte("GGCTATAATGCGGGG"), []byte("GGCTATATGCGGG"))
				if err != nil {
					t.Error(err)
					return
				}
				if d != 2 {
					t.Errorf("distance=%d, want 2", d)
				}
			}
		}()
	}
	wg.Wait()
	if st := e.Stats(); st.InFlight != 0 {
		t.Errorf("default engine in-flight=%d, want 0", st.InFlight)
	}
}
