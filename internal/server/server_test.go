package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"genasm"
	"genasm/internal/alphabet"
	"genasm/internal/seq"
	"genasm/internal/simulate"
)

// startServer runs a Server on a loopback listener and returns its base
// URL; the server is shut down gracefully when the test ends.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return s, "http://" + l.Addr().String()
}

func newTestEngine(t *testing.T, opts ...genasm.Option) *genasm.Engine {
	t.Helper()
	e, err := genasm.NewEngine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// mutateDNA plants roughly errRate errors (sub/ins/del) in letter space.
func mutateDNA(rng *rand.Rand, s []byte, errRate float64) []byte {
	letters := []byte("ACGT")
	out := append([]byte(nil), s...)
	for e := 0; e < int(float64(len(s))*errRate); e++ {
		switch rng.IntN(3) {
		case 0:
			p := rng.IntN(len(out))
			out[p] = letters[rng.IntN(4)]
		case 1:
			p := rng.IntN(len(out) + 1)
			out = append(out[:p], append([]byte{letters[rng.IntN(4)]}, out[p:]...)...)
		default:
			if len(out) > 1 {
				p := rng.IntN(len(out))
				out = append(out[:p], out[p+1:]...)
			}
		}
	}
	return out
}

func TestAlignMatchesLibrary(t *testing.T) {
	eng := newTestEngine(t)
	_, base := startServer(t, Config{Engine: eng})

	rng := rand.New(rand.NewPCG(7, 7))
	text := alphabet.DNA.Decode(seq.Random(rng, 400))
	query := mutateDNA(rng, text[:360], 0.05)

	lib := newTestEngine(t)
	want, err := lib.Align(context.Background(), text, query)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, base+"/v1/align", AlignRequest{Text: string(text), Query: string(query)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got AlignResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.CIGAR != want.CIGAR || got.Distance != want.Distance {
		t.Errorf("served (%s, %d) != library (%s, %d)", got.CIGAR, got.Distance, want.CIGAR, want.Distance)
	}
	if got.ClassicCIGAR != want.ClassicCIGAR || got.Matches != want.Matches ||
		got.TextStart != want.TextStart || got.TextEnd != want.TextEnd {
		t.Errorf("served %+v != library %+v", got, want)
	}
}

// TestGlobalAlignIgnoresSearchStart pins that a server whose engine has
// SearchStart still answers "global" requests end to end: the leading
// text is charged as deletions, not skipped.
func TestGlobalAlignIgnoresSearchStart(t *testing.T) {
	_, base := startServer(t, Config{Engine: newTestEngine(t, genasm.WithSearchStart(true))})
	resp, body := postJSON(t, base+"/v1/align", AlignRequest{Text: "TTTTTTTTACGTACGTAC", Query: "ACGTACGTAC", Global: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got AlignResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.TextStart != 0 || got.Distance != 8 {
		t.Errorf("global align on a SearchStart engine = %+v, want distance 8 from text_start 0", got)
	}
}

func TestAlignRejectsBadInput(t *testing.T) {
	eng := newTestEngine(t)
	_, base := startServer(t, Config{Engine: eng, MaxSeqLen: 100})

	for _, tc := range []struct {
		name string
		req  AlignRequest
		code int
	}{
		{"empty query", AlignRequest{Text: "ACGT"}, http.StatusBadRequest},
		{"bad letters", AlignRequest{Text: "ACGT", Query: "AXGT"}, http.StatusBadRequest},
		{"oversized", AlignRequest{Text: strings.Repeat("A", 101), Query: "ACGT"}, http.StatusBadRequest},
	} {
		resp, body := postJSON(t, base+"/v1/align", tc.req)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, body)
		}
	}
}

// TestBatchOrdered round-trips a 100-job batch and pins that results come
// back in request order with the single-threaded library's values.
func TestBatchOrdered(t *testing.T) {
	eng := newTestEngine(t, genasm.WithMaxWorkspaces(4))
	_, base := startServer(t, Config{Engine: eng})

	rng := rand.New(rand.NewPCG(11, 3))
	lib := newTestEngine(t)
	const n = 100
	req := BatchRequest{}
	want := make([]genasm.Alignment, n)
	var err error
	for i := 0; i < n; i++ {
		text := alphabet.DNA.Decode(seq.Random(rng, 150+i))
		query := mutateDNA(rng, text, 0.04)
		req.Jobs = append(req.Jobs, AlignRequest{Text: string(text), Query: string(query), Global: true})
		want[i], err = lib.AlignGlobal(context.Background(), text, query)
		if err != nil {
			t.Fatal(err)
		}
	}

	resp, body := postJSON(t, base+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got BatchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != n {
		t.Fatalf("%d results, want %d", len(got.Results), n)
	}
	for i, item := range got.Results {
		if item.Error != "" {
			t.Fatalf("job %d: %s", i, item.Error)
		}
		if item.Alignment.CIGAR != want[i].CIGAR || item.Alignment.Distance != want[i].Distance {
			t.Errorf("job %d: served (%s, %d) != library (%s, %d)",
				i, item.Alignment.CIGAR, item.Alignment.Distance, want[i].CIGAR, want[i].Distance)
		}
	}
}

// TestMapReturnsSAM posts a reference plus simulated reads and validates
// the SAM response: header lines, one record per read, mapped within
// tolerance of the simulated position.
func TestMapReturnsSAM(t *testing.T) {
	eng := newTestEngine(t)
	_, base := startServer(t, Config{Engine: eng})

	rng := rand.New(rand.NewPCG(2020, 5))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(20000))
	reads, err := simulate.Reads(rng, genome, 8, simulate.Illumina150, true)
	if err != nil {
		t.Fatal(err)
	}
	req := MapRequest{RefName: "chr_t", Reference: string(alphabet.DNA.Decode(genome))}
	for i, r := range reads {
		req.Reads = append(req.Reads, MapRead{
			Name: fmt.Sprintf("sim%d", i),
			Seq:  string(alphabet.DNA.Decode(r.Seq)),
		})
	}

	resp, body := postJSON(t, base+"/v1/map", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/x-sam") {
		t.Errorf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	var headers, records []string
	for _, ln := range lines {
		if strings.HasPrefix(ln, "@") {
			headers = append(headers, ln)
		} else {
			records = append(records, ln)
		}
	}
	if len(headers) < 2 || !strings.HasPrefix(headers[0], "@HD") || !strings.Contains(headers[1], "SN:chr_t") {
		t.Fatalf("bad SAM header: %q", headers)
	}
	if len(records) != len(reads) {
		t.Fatalf("%d records, want %d", len(records), len(reads))
	}
	mapped := 0
	for i, rec := range records {
		f := strings.Split(rec, "\t")
		if len(f) < 11 {
			t.Fatalf("record %d has %d fields: %q", i, len(f), rec)
		}
		if f[0] != fmt.Sprintf("sim%d", i) {
			t.Errorf("record %d: name %q out of order", i, f[0])
		}
		flag, err := strconv.Atoi(f[1])
		if err != nil {
			t.Fatalf("record %d: flag %q", i, f[1])
		}
		if flag&0x4 != 0 {
			continue
		}
		mapped++
		pos, err := strconv.Atoi(f[3])
		if err != nil || pos < 1 {
			t.Errorf("record %d: pos %q", i, f[3])
		}
		if d := pos - 1 - reads[i].Pos; d < -30 || d > 30 {
			t.Errorf("record %d: mapped at %d, simulated at %d", i, pos-1, reads[i].Pos)
		}
		if f[5] == "*" {
			t.Errorf("record %d: mapped but no CIGAR", i)
		}
	}
	if mapped < len(reads)-1 {
		t.Errorf("only %d/%d reads mapped", mapped, len(reads))
	}
}

// TestQueueOverflow429 fills the admission queue with a long-running batch
// and pins that a request arriving while the queue is full is rejected
// with 429, then that the server recovers once the queue drains.
//
// On a slow or single-CPU machine the probe request's handler can be
// starved past the batch's completion, so the probe retries — re-arming
// the queue with a fresh batch whenever the previous one drains — until a
// 429 is observed.
func TestQueueOverflow429(t *testing.T) {
	eng := newTestEngine(t, genasm.WithMaxWorkspaces(1))
	srv, base := startServer(t, Config{Engine: eng, QueueDepth: 1})

	rng := rand.New(rand.NewPCG(3, 9))
	text := alphabet.DNA.Decode(seq.Random(rng, 4000))
	query := mutateDNA(rng, text, 0.10)
	big := BatchRequest{}
	for i := 0; i < 300; i++ {
		big.Jobs = append(big.Jobs, AlignRequest{Text: string(text), Query: string(query), Global: true})
	}

	bigBody, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	bigDone := make(chan int, 8)
	postBig := func() {
		// Post from a plain goroutine that always reports back — t.Fatal
		// (runtime.Goexit) in a helper goroutine would leave bigDone empty
		// and hang the drain below.
		go func() {
			resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(bigBody))
			if err != nil {
				t.Logf("batch post: %v", err)
				bigDone <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			bigDone <- resp.StatusCode
		}()
		// Wait until the batch holds the only queue slot.
		deadline := time.Now().Add(5 * time.Second)
		for srv.Stats().Server.InFlightRequests == 0 {
			if time.Now().After(deadline) {
				t.Fatal("batch request never became in-flight")
			}
			time.Sleep(time.Millisecond)
		}
	}

	postBig()
	batches := 1
	sawReject := false
	retryAfter := "unset"
	overall := time.Now().Add(30 * time.Second)
	for !sawReject {
		if time.Now().After(overall) {
			t.Fatal("never saw a 429 despite a full admission queue")
		}
		select {
		case code := <-bigDone:
			if code != http.StatusOK && code != -1 {
				t.Fatalf("big batch finished with %d", code)
			}
			// The batch drained (or its POST failed, already logged)
			// before the probe landed: re-arm the queue.
			batches--
			postBig()
			batches++
		default:
		}
		resp, _ := postJSON(t, base+"/v1/align", AlignRequest{Text: "ACGTACGT", Query: "ACGT"})
		if resp.StatusCode == http.StatusTooManyRequests {
			sawReject = true
			retryAfter = resp.Header.Get("Retry-After")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if retryAfter == "" {
		t.Error("429 without Retry-After")
	}

	for ; batches > 0; batches-- {
		if code := <-bigDone; code != http.StatusOK && code != -1 {
			t.Fatalf("big batch finished with %d", code)
		}
	}
	resp, body := postJSON(t, base+"/v1/align", AlignRequest{Text: "ACGTACGT", Query: "ACGT"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after drain: status %d (%s)", resp.StatusCode, body)
	}
	if st := srv.Stats(); st.Server.Rejected == 0 {
		t.Error("stats did not count the rejection")
	}
}

func TestHealthzAndStats(t *testing.T) {
	eng := newTestEngine(t)
	_, base := startServer(t, Config{Engine: eng})

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil || hz.Status != "ok" {
		t.Fatalf("healthz body: %v %q", err, hz.Status)
	}

	postJSON(t, base+"/v1/align", AlignRequest{Text: "ACGTACGT", Query: "ACGT"})
	resp2, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Server.Requests == 0 || st.Server.Alignments == 0 {
		t.Errorf("stats did not count work: %+v", st.Server)
	}
	if st.Pool.Capacity == 0 {
		t.Errorf("pool stats empty: %+v", st.Pool)
	}
}

// TestPreloadedReference maps against a reference indexed at startup.
func TestPreloadedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 1))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(20000))
	reads, err := simulate.Reads(rng, genome, 3, simulate.Illumina150, false)
	if err != nil {
		t.Fatal(err)
	}

	eng := newTestEngine(t)
	_, base := startServer(t, Config{
		Engine:  eng,
		RefName: "preloaded",
		Ref:     alphabet.DNA.Decode(genome),
	})

	req := MapRequest{}
	for i, r := range reads {
		req.Reads = append(req.Reads, MapRead{Name: fmt.Sprintf("p%d", i), Seq: string(alphabet.DNA.Decode(r.Seq))})
	}
	resp, body := postJSON(t, base+"/v1/map", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "SN:preloaded") {
		t.Errorf("response header lacks preloaded reference name:\n%s", body)
	}

	// The preloaded Mapper is shared across requests: hammer it
	// concurrently (run with -race) and pin that every response matches
	// the serial one.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, got := postJSON(t, base+"/v1/map", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent map: status %d: %s", resp.StatusCode, got)
				return
			}
			if !bytes.Equal(got, body) {
				t.Errorf("concurrent map response diverged:\n%s\nvs\n%s", got, body)
			}
		}()
	}
	wg.Wait()
}

// simMapRequest simulates n Illumina-150 reads (both strands) from a
// 20 kbp genome and returns the genome letters and a request for them.
func simMapRequest(t *testing.T, n int) ([]byte, MapRequest) {
	t.Helper()
	rng := rand.New(rand.NewPCG(32, 5))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(20000))
	reads, err := simulate.Reads(rng, genome, n, simulate.Illumina150, true)
	if err != nil {
		t.Fatal(err)
	}
	var req MapRequest
	for i, r := range reads {
		req.Reads = append(req.Reads, MapRead{Name: fmt.Sprintf("s%d", i), Seq: string(alphabet.DNA.Decode(r.Seq))})
	}
	return alphabet.DNA.Decode(genome), req
}

// TestMapDrawsFromServingPool pins that /v1/map runs on the serving
// engine: mapping shows in its pool counters and stays within its
// capacity.
func TestMapDrawsFromServingPool(t *testing.T) {
	ref, req := simMapRequest(t, 5)
	srv, base := startServer(t, Config{
		Engine: newTestEngine(t, genasm.WithMaxWorkspaces(2)),
		Ref:    ref,
	})
	before := srv.Stats().Pool
	resp, body := postJSON(t, base+"/v1/map", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	after := srv.Stats().Pool
	if after.Hits+after.Misses <= before.Hits+before.Misses {
		t.Errorf("pool gets %d before the map request and %d after, want an increase",
			before.Hits+before.Misses, after.Hits+after.Misses)
	}
	if after.Capacity != 2 {
		t.Errorf("pool capacity %d, want 2", after.Capacity)
	}
}

// TestNonDNAEngineRefusesMapping pins that a server on a non-DNA engine
// refuses references at boot and inline references per request, naming
// the alphabet either way.
func TestNonDNAEngineRefusesMapping(t *testing.T) {
	eng := newTestEngine(t, genasm.WithAlphabet(genasm.Protein))
	ref, req := simMapRequest(t, 2)
	name := genasm.Protein.String()
	for _, cfg := range []Config{
		{Engine: eng, Ref: ref},
		{Engine: eng, RefIndexPath: "ref.gidx"},
		{Engine: eng, RefDir: t.TempDir()},
	} {
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("New = %v, want an error naming %q", err, name)
		}
	}

	_, base := startServer(t, Config{Engine: eng})
	req.Reference = string(ref)
	resp, body := postJSON(t, base+"/v1/map", req)
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("status %d, body %s: %v", resp.StatusCode, body, err)
	}
	if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "input" || !strings.Contains(eb.Error.Message, name) {
		t.Errorf("inline map on a %s engine: status %d, %+v; want 400 input naming the alphabet", name, resp.StatusCode, eb.Error)
	}
}

// TestMapIgnoresSearchStart pins that mapping searches the first window
// whatever the serving engine's SearchStart: both settings serve the
// same SAM.
func TestMapIgnoresSearchStart(t *testing.T) {
	ref, req := simMapRequest(t, 16)
	req.Reference = string(ref)
	var sams [2][]byte
	for i, on := range []bool{false, true} {
		_, base := startServer(t, Config{Engine: newTestEngine(t, genasm.WithSearchStart(on))})
		resp, body := postJSON(t, base+"/v1/map", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("SearchStart %v: status %d: %s", on, resp.StatusCode, body)
		}
		sams[i] = body
	}
	if !bytes.Equal(sams[0], sams[1]) {
		t.Errorf("SAM differs with SearchStart:\n%s\nvs\n%s", sams[0], sams[1])
	}
}

// TestPreloadedRefIndexFile boots the server from a prebuilt index file
// (the RefIndexPath fast-start path) and pins that mapping through it is
// identical to a server that indexed the same reference at startup, that
// the index shows on /metrics, and that the mapping is released on clean
// shutdown.
func TestPreloadedRefIndexFile(t *testing.T) {
	rng := rand.New(rand.NewPCG(78, 1))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(20000))
	refLetters := alphabet.DNA.Decode(genome)
	reads, err := simulate.Reads(rng, genome, 3, simulate.Illumina150, true)
	if err != nil {
		t.Fatal(err)
	}
	req := MapRequest{}
	for i, r := range reads {
		req.Reads = append(req.Reads, MapRead{Name: fmt.Sprintf("p%d", i), Seq: string(alphabet.DNA.Decode(r.Seq))})
	}

	eng := newTestEngine(t)
	ri, err := eng.BuildRefIndex(refLetters, RefIndexBuildConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ref.gidx"
	if err := ri.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	_, baseBuilt := startServer(t, Config{Engine: newTestEngine(t), RefName: "chrF", Ref: refLetters})
	_, baseFile := startServer(t, Config{Engine: newTestEngine(t), RefIndexPath: path})

	respB, bodyB := postJSON(t, baseBuilt+"/v1/map", req)
	respF, bodyF := postJSON(t, baseFile+"/v1/map", req)
	if respB.StatusCode != http.StatusOK || respF.StatusCode != http.StatusOK {
		t.Fatalf("status built=%d file=%d: %s %s", respB.StatusCode, respF.StatusCode, bodyB, bodyF)
	}
	if !strings.Contains(string(bodyF), "SN:chrF") {
		t.Errorf("file-backed server lost the reference name from the index:\n%s", bodyF)
	}
	if !bytes.Equal(bodyB, bodyF) {
		t.Errorf("mappings diverge between built and file-loaded index:\n%s\nvs\n%s", bodyB, bodyF)
	}

	mresp, err := http.Get(baseFile + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	exposition, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`genasm_index_info{ref="chrF",backend="hash",source="m`, // mmap or memory
		"genasm_index_bytes",
		"genasm_index_load_seconds",
		"genasm_index_seeds",
	} {
		if !strings.Contains(string(exposition), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// RefIndexBuildConfig is the index configuration the file-backed server
// tests build with: the name written into the file must surface in SAM.
func RefIndexBuildConfig(t *testing.T) genasm.RefIndexConfig {
	t.Helper()
	return genasm.RefIndexConfig{RefName: "chrF"}
}

func TestRefIndexConfigErrors(t *testing.T) {
	eng := newTestEngine(t)
	if _, err := New(Config{Engine: eng, Ref: []byte("ACGT"), RefIndexPath: "x.gidx"}); err == nil {
		t.Error("Ref + RefIndexPath accepted")
	}
	if _, err := New(Config{Engine: eng, RefIndexPath: t.TempDir() + "/absent.gidx"}); err == nil {
		t.Error("missing index file accepted")
	}
	rng := rand.New(rand.NewPCG(79, 1))
	refLetters := alphabet.DNA.Decode(seq.Genome(rng, seq.DefaultGenomeConfig(2000)))
	ri, err := eng.BuildRefIndex(refLetters, genasm.RefIndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ref.gidx"
	if err := ri.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Engine: eng, RefIndexPath: path, MapSeedK: 21}); err == nil {
		t.Error("MapSeedK + RefIndexPath accepted")
	}
	// Corrupt the file; the server must refuse to boot, not panic.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Engine: eng, RefIndexPath: path}); err == nil {
		t.Error("corrupt index file accepted")
	}
}

// TestMapErrorRateValidated pins that a mapping error rate every mapper
// would refuse fails New at startup, not the first /v1/map request.
func TestMapErrorRateValidated(t *testing.T) {
	eng := newTestEngine(t)
	for _, rate := range []float64{math.NaN(), -0.5, 2} {
		if _, err := New(Config{Engine: eng, MapErrorRate: rate}); err == nil {
			t.Errorf("MapErrorRate %v accepted", rate)
		}
	}
}

func TestMapLimits(t *testing.T) {
	eng := newTestEngine(t)
	_, base := startServer(t, Config{Engine: eng, MaxRefLen: 100, MaxSeqLen: 50})

	resp, body := postJSON(t, base+"/v1/map", MapRequest{
		Reference: strings.Repeat("A", 101),
		Reads:     []MapRead{{Name: "r", Seq: "ACGTACGTACGTACGTACGT"}},
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "reference length") {
		t.Errorf("oversized reference: status %d, body %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, base+"/v1/map", MapRequest{
		Reference: strings.Repeat("ACGT", 25),
		Reads:     []MapRead{{Name: "r", Seq: strings.Repeat("A", 51)}},
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "exceeds limit") {
		t.Errorf("oversized read: status %d, body %s", resp.StatusCode, body)
	}
}

// TestMapReadCountLimit pins the /v1/map read-count cap: one read past it
// is a 400 that names the limit.
func TestMapReadCountLimit(t *testing.T) {
	_, base := startServer(t, Config{Engine: newTestEngine(t)})
	reads := make([]MapRead, maxMapReads+1)
	for i := range reads {
		reads[i] = MapRead{Name: fmt.Sprintf("r%d", i), Seq: "ACGTACGTACGTACGTACGT"}
	}
	resp, body := postJSON(t, base+"/v1/map", MapRequest{Reference: strings.Repeat("ACGT", 25), Reads: reads})
	want := fmt.Sprintf("map: %d reads exceeds limit %d", maxMapReads+1, maxMapReads)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), want) {
		t.Errorf("%d reads: status %d, body %s; want 400 with %q", len(reads), resp.StatusCode, body, want)
	}
}

// TestStatsLatencySummaries pins the /v1/stats percentile digests: after
// known traffic the per-endpoint and pipeline summaries carry counts and
// sane, ordered percentiles — no scrape-and-quantile step needed.
func TestStatsLatencySummaries(t *testing.T) {
	rng := rand.New(rand.NewPCG(778, 0))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(30000))
	simReads, err := simulate.Reads(rng, genome, 4, simulate.Illumina150, false)
	if err != nil {
		t.Fatal(err)
	}
	_, base := startServer(t, Config{
		Engine:  newTestEngine(t),
		RefName: "chrL",
		Ref:     alphabet.DNA.Decode(genome),
	})

	for i := 0; i < 5; i++ {
		if resp, _ := postJSON(t, base+"/v1/align", AlignRequest{Text: "ACGTACGTACGT", Query: "ACGTACGT"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("align status %d", resp.StatusCode)
		}
	}
	mapReq := MapRequest{}
	for _, r := range simReads {
		mapReq.Reads = append(mapReq.Reads, MapRead{Seq: string(alphabet.DNA.Decode(r.Seq))})
	}
	if resp, body := postJSON(t, base+"/v1/map", mapReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("map status %d (%s)", resp.StatusCode, body)
	}

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}

	align, ok := stats.Latency.Endpoints["/v1/align"]
	if !ok {
		t.Fatalf("no /v1/align latency summary; endpoints: %v", stats.Latency.Endpoints)
	}
	if align.Count != 5 {
		t.Errorf("/v1/align count = %d, want 5", align.Count)
	}
	if align.P50Ms <= 0 || align.P50Ms > align.P95Ms || align.P95Ms > align.P99Ms {
		t.Errorf("/v1/align percentiles not ordered: p50=%v p95=%v p99=%v",
			align.P50Ms, align.P95Ms, align.P99Ms)
	}
	if align.MeanMs <= 0 {
		t.Errorf("/v1/align mean = %v, want > 0", align.MeanMs)
	}
	if _, ok := stats.Latency.Endpoints["/v1/map"]; !ok {
		t.Errorf("no /v1/map latency summary")
	}
	for _, stage := range []string{"seed", "align"} {
		s, ok := stats.Latency.Stages[stage]
		if !ok || s.Count == 0 {
			t.Errorf("stage %q summary missing or empty: %+v (stages: %v)", stage, s, stats.Latency.Stages)
		}
	}
	if stats.Latency.Read.Count != uint64(len(simReads)) {
		t.Errorf("read summary count = %d, want %d", stats.Latency.Read.Count, len(simReads))
	}
	if stats.Latency.Align.Count == 0 || stats.Latency.WorkspaceWait.Count == 0 {
		t.Errorf("engine summaries empty: align=%+v wait=%+v", stats.Latency.Align, stats.Latency.WorkspaceWait)
	}
}
