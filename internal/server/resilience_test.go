package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"genasm"
	"genasm/internal/alphabet"
	"genasm/internal/faults"
	"genasm/internal/seq"
)

// alignBody is a small multi-window alignment request (long enough that
// the core loop crosses several DC windows, so context checks fire).
func alignBody() AlignRequest {
	text := strings.Repeat("ACGTTGCA", 100)
	return AlignRequest{Text: text, Query: text[:760]}
}

func doAlign(t *testing.T, srv *Server, req AlignRequest, header map[string]string) (*httptest.ResponseRecorder, ErrorBody) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/v1/align", strings.NewReader(string(b)))
	for k, v := range header {
		r.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, r)
	var envelope ErrorBody
	if rec.Code >= 400 {
		if err := json.NewDecoder(rec.Body).Decode(&envelope); err != nil {
			t.Fatalf("status %d without JSON envelope: %v", rec.Code, err)
		}
	}
	return rec, envelope
}

// TestRequestTimeoutEnvelope pins deadline propagation end to end: a
// server-side RequestTimeout expiring mid-alignment (here: an injected
// kernel latency) answers 504 with envelope code "timeout" — not a
// silent hang, not a generic 400.
func TestRequestTimeoutEnvelope(t *testing.T) {
	if err := faults.Enable("align.kernel:latency=300ms"); err != nil {
		t.Fatal(err)
	}
	defer faults.Disable()
	srv, err := New(Config{Engine: newTestEngine(t), RequestTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rec, envelope := doAlign(t, srv, alignBody(), nil)
	if rec.Code != http.StatusGatewayTimeout || envelope.Error.Code != "timeout" {
		t.Fatalf("got %d code %q, want 504 timeout", rec.Code, envelope.Error.Code)
	}
	if envelope.Error.RequestID == "" {
		t.Error("timeout envelope without request_id")
	}
}

// TestPanicEnvelopeAndRecovery pins panic isolation at the serving layer:
// an injected kernel panic answers 500 with envelope code "panic", counts
// in genasm_panics_total, and the very next request succeeds on a fresh
// workspace (the panicking one was quarantined, the process survived).
func TestPanicEnvelopeAndRecovery(t *testing.T) {
	if err := faults.Enable("align.kernel:panic#1"); err != nil {
		t.Fatal(err)
	}
	defer faults.Disable()
	srv, err := New(Config{Engine: newTestEngine(t)})
	if err != nil {
		t.Fatal(err)
	}
	rec, envelope := doAlign(t, srv, alignBody(), nil)
	if rec.Code != http.StatusInternalServerError || envelope.Error.Code != "panic" {
		t.Fatalf("got %d code %q, want 500 panic", rec.Code, envelope.Error.Code)
	}
	if got := srv.m.panics.Sum(); got != 1 {
		t.Errorf("genasm_panics_total = %d, want 1", got)
	}
	if st := srv.Stats(); st.Server.Panics != 1 {
		t.Errorf("stats panics = %d, want 1", st.Server.Panics)
	}
	// The fault is exhausted (#1); the pool must serve the next request.
	if rec, _ := doAlign(t, srv, alignBody(), nil); rec.Code != http.StatusOK {
		t.Fatalf("request after panic: got %d, want 200", rec.Code)
	}
}

// TestHandlerPanicMiddleware pins the last-resort recover in the request
// middleware: a panic escaping a handler yields a 500 envelope, not a
// dead connection.
func TestHandlerPanicMiddleware(t *testing.T) {
	srv, err := New(Config{Engine: newTestEngine(t)})
	if err != nil {
		t.Fatal(err)
	}
	srv.mux.HandleFunc("GET /v1/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	r := httptest.NewRequest("GET", "/v1/boom", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, r)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("got %d, want 500", rec.Code)
	}
	var envelope ErrorBody
	if err := json.NewDecoder(rec.Body).Decode(&envelope); err != nil || envelope.Error.Code != "internal" {
		t.Fatalf("envelope = %+v, %v; want code internal", envelope, err)
	}
	if got := srv.m.panics.Sum(); got != 1 {
		t.Errorf("genasm_panics_total = %d, want 1", got)
	}
}

// TestDegradedModeHysteresis drives the degraded-mode state machine
// through a full cycle: sustained queue saturation enters it (batch shed,
// healthz 503 with a machine-readable reason), and it recovers only after
// conditions stay clear for DegradedRecovery.
func TestDegradedModeHysteresis(t *testing.T) {
	srv, err := New(Config{
		Engine:           newTestEngine(t),
		QueueDepth:       2,
		DegradedAfter:    30 * time.Millisecond,
		DegradedRecovery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	healthz := func() (int, string, bool) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
		var body struct {
			Reason   string `json:"reason"`
			Degraded bool   `json:"degraded_mode"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return rec.Code, body.Reason, body.Degraded
	}

	// Saturate the queue and hold it long enough to trip the degrader.
	srv.slots <- struct{}{}
	srv.slots <- struct{}{}
	healthz() // start the condition clock
	time.Sleep(60 * time.Millisecond)
	if code, reason, degraded := healthz(); code != http.StatusServiceUnavailable ||
		reason != "queue_saturated" || !degraded {
		t.Fatalf("sustained saturation: %d %q degraded=%v, want 503 queue_saturated true", code, reason, degraded)
	}

	// Queue drains, but degraded mode must persist through the recovery
	// window: batch is still shed while interactive is admitted.
	<-srv.slots
	<-srv.slots
	rec, envelope := doAlign(t, srv, alignBody(), map[string]string{"X-Genasm-Priority": "batch"})
	if rec.Code != http.StatusTooManyRequests || !strings.Contains(envelope.Error.Message, "degraded") {
		t.Fatalf("batch during degraded: %d %q, want 429 mentioning degraded", rec.Code, envelope.Error.Message)
	}
	if rec, _ := doAlign(t, srv, alignBody(), nil); rec.Code != http.StatusOK {
		t.Fatalf("interactive during degraded: %d, want 200", rec.Code)
	}
	if entered := srv.m.degradedEntered.Value(); entered != 1 {
		t.Errorf("genasm_degraded_entered_total = %d, want 1", entered)
	}

	// After conditions stay clear for DegradedRecovery, it recovers.
	time.Sleep(80 * time.Millisecond)
	if code, _, degraded := healthz(); code != http.StatusOK || degraded {
		t.Fatalf("after recovery window: %d degraded=%v, want 200 false", code, degraded)
	}
	if rec, _ := doAlign(t, srv, alignBody(), map[string]string{"X-Genasm-Priority": "batch"}); rec.Code != http.StatusOK {
		t.Fatalf("batch after recovery: %d, want 200", rec.Code)
	}
}

// TestDrainRateSample pins the estimator arithmetic the adaptive
// Retry-After derives from.
func TestDrainRateSample(t *testing.T) {
	var d drainRate
	t0 := time.Now()
	if r := d.sample(0, t0); r != 0 {
		t.Fatalf("first sample = %v, want 0", r)
	}
	if r := d.sample(100, t0.Add(time.Second)); r < 99 || r > 101 {
		t.Fatalf("second sample = %v, want ~100/s", r)
	}
	// Smoothed: 0.5*100 + 0.5*200.
	if r := d.sample(300, t0.Add(2*time.Second)); r < 149 || r > 151 {
		t.Fatalf("third sample = %v, want ~150/s", r)
	}
	// Sub-interval samples return the held estimate unchanged.
	if r := d.sample(301, t0.Add(2*time.Second+time.Millisecond)); r < 149 || r > 151 {
		t.Fatalf("sub-interval sample = %v, want held ~150/s", r)
	}
}

// TestAdaptiveRetryAfter pins the 429 hint: a known drain rate and queue
// depth yield the expected clamped integer, and a saturated live server
// sends a parseable Retry-After header.
func TestAdaptiveRetryAfter(t *testing.T) {
	srv, err := New(Config{Engine: newTestEngine(t), QueueDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	for range 20 {
		srv.slots <- struct{}{}
	}
	// 20 queued / 2, draining at 2/s → 5s.
	srv.drain = drainRate{rate: 2, lastT: time.Now(), lastN: srv.completions.Load()}
	if got := srv.retryAfterSeconds(); got != 5 {
		t.Errorf("retryAfterSeconds = %d, want 5", got)
	}
	// A glacial drain clamps at 30s; no history falls back to 1s.
	srv.drain = drainRate{rate: 0.01, lastT: time.Now(), lastN: srv.completions.Load()}
	if got := srv.retryAfterSeconds(); got != 30 {
		t.Errorf("clamped retryAfterSeconds = %d, want 30", got)
	}
	srv.drain = drainRate{}
	rec, _ := doAlign(t, srv, alignBody(), nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated align: %d, want 429", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Fatalf("Retry-After %q, want integer in [1,30]", rec.Header().Get("Retry-After"))
	}
}

// streamClient opens a /v1/map/stream NDJSON request fed by a pipe and
// returns the response plus the pipe writer. first is written from a
// goroutine before the response arrives: the handler sniffs the body
// before sending headers, so the body must start flowing first.
func streamClient(t *testing.T, base, first string) (*http.Response, *io.PipeWriter) {
	t.Helper()
	pr, pw := io.Pipe()
	go pw.Write([]byte(first))
	req, err := http.NewRequest("POST", base+"/v1/map/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	return resp, pw
}

func readLine(name string, seq []byte) string {
	return fmt.Sprintf("{\"name\":%q,\"seq\":%q}\n", name, seq)
}

// TestShutdownTruncatesStream pins graceful shutdown against an in-flight
// /v1/map/stream: the response ends with an in-band error record naming
// the shutdown (not a silent EOF that looks complete), and Shutdown
// returns cleanly. Run under -race in CI, this also pins the
// stopStreams/cancel plumbing.
func TestShutdownTruncatesStream(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	ref := alphabet.DNA.Decode(seq.Random(rng, 20_000))
	srv, base := startServer(t, Config{Engine: newTestEngine(t), Ref: ref, RefName: "chr"})

	resp, pw := streamClient(t, base, readLine("r0", ref[:100]))
	defer resp.Body.Close()

	// Feed reads continuously; stop on the first write error (the server
	// is done with the body).
	go func() {
		defer pw.Close()
		for i := 1; ; i++ {
			pos := (i * 631) % (len(ref) - 120)
			if _, err := pw.Write([]byte(readLine(fmt.Sprintf("r%d", i), ref[pos:pos+100]))); err != nil {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	sc := bufio.NewScanner(resp.Body)
	var records []StreamMapResult
	shutdownDone := make(chan error, 1)
	for sc.Scan() {
		var res StreamMapResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		records = append(records, res)
		if len(records) == 3 {
			go func() { shutdownDone <- srv.Shutdown(context.Background()) }()
		}
	}
	if len(records) < 3 {
		t.Fatalf("stream ended after %d records", len(records))
	}
	last := records[len(records)-1]
	if last.Index != -1 || !strings.Contains(last.Error, "shutting down") ||
		!strings.Contains(last.Error, "stream truncated") {
		t.Fatalf("final record = %+v, want index -1 with shutdown truncation error", last)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown during stream: %v", err)
	}
}

// TestStreamIdleTimeout pins the idle watchdog: a stream whose client
// stops sending is truncated with an in-band error naming the timeout,
// instead of pinning its admission slot forever.
func TestStreamIdleTimeout(t *testing.T) {
	// One workspace blocks the handler goroutine itself in the body read
	// the timeout must fail; the default engine blocks MapStream's
	// dispatcher there.
	t.Run("one-workspace", func(t *testing.T) { testStreamIdleTimeout(t, genasm.WithMaxWorkspaces(1)) })
	t.Run("default", func(t *testing.T) { testStreamIdleTimeout(t) })
}

func testStreamIdleTimeout(t *testing.T, opts ...genasm.Option) {
	rng := rand.New(rand.NewPCG(17, 19))
	ref := alphabet.DNA.Decode(seq.Random(rng, 20_000))
	srv, base := startServer(t, Config{
		Engine:            newTestEngine(t, opts...),
		Ref:               ref,
		RefName:           "chr",
		StreamIdleTimeout: 100 * time.Millisecond,
	})
	_ = srv

	// Two reads, then silence.
	resp, pw := streamClient(t, base, readLine("r0", ref[:100])+readLine("r1", ref[500:600]))
	defer resp.Body.Close()
	defer pw.Close()

	sc := bufio.NewScanner(resp.Body)
	var records []StreamMapResult
	for sc.Scan() {
		var res StreamMapResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		records = append(records, res)
	}
	if len(records) != 3 {
		t.Fatalf("got %d records, want 2 mappings + 1 truncation", len(records))
	}
	last := records[2]
	if last.Index != -1 || !strings.Contains(last.Error, "idle timeout") {
		t.Fatalf("final record = %+v, want index -1 idle-timeout error", last)
	}
}
