package server

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"testing"
	"time"

	"genasm"
	"genasm/internal/alphabet"
	"genasm/internal/seq"
	"genasm/internal/simulate"
	"genasm/seqio"
)

// streamFixture builds a server with a preloaded reference plus a set of
// simulated reads with known positions; opts configure its engine.
func streamFixture(t *testing.T, opts ...genasm.Option) (base string, srv *Server, reads []simulate.Read) {
	t.Helper()
	rng := rand.New(rand.NewPCG(31337, 0))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(30000))
	reads, err := simulate.Reads(rng, genome, 10, simulate.Illumina150, true)
	if err != nil {
		t.Fatal(err)
	}
	eng := newTestEngine(t, opts...)
	srv, base = startServer(t, Config{
		Engine:  eng,
		RefName: "chrS",
		Ref:     alphabet.DNA.Decode(genome),
	})
	return base, srv, reads
}

// postStream posts body to /v1/map/stream with the given headers.
func postStream(t *testing.T, base string, body []byte, contentType string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/v1/map/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestMapStreamFASTQGzipToSAM posts a gzipped FASTQ body and checks the
// SAM response matches the buffered /v1/map endpoint record for record.
func TestMapStreamFASTQGzipToSAM(t *testing.T) {
	base, srv, reads := streamFixture(t)

	// Build the gzipped FASTQ body.
	var fastq bytes.Buffer
	zw := gzip.NewWriter(&fastq)
	recs := make([]seqio.Record, len(reads))
	mapReq := MapRequest{}
	for i, r := range reads {
		letters := alphabet.DNA.Decode(r.Seq)
		recs[i] = seqio.Record{Name: fmt.Sprintf("sim%d", i), Seq: letters}
		mapReq.Reads = append(mapReq.Reads, MapRead{Name: fmt.Sprintf("sim%d", i), Seq: string(letters)})
	}
	if err := seqio.WriteFASTQ(zw, recs); err != nil {
		t.Fatal(err)
	}
	zw.Close()

	resp := postStream(t, base, fastq.Bytes(), "", map[string]string{"Accept": "text/x-sam"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/x-sam") {
		t.Fatalf("content type %q", ct)
	}
	var streamed bytes.Buffer
	streamed.ReadFrom(resp.Body)

	// The buffered endpoint must agree line for line.
	respBuf, buffered := postJSON(t, base+"/v1/map", mapReq)
	if respBuf.StatusCode != http.StatusOK {
		t.Fatalf("buffered map status %d: %s", respBuf.StatusCode, buffered)
	}
	if streamed.String() != string(buffered) {
		t.Errorf("streamed SAM differs from buffered SAM:\n--- stream ---\n%s\n--- buffered ---\n%s", streamed.String(), buffered)
	}
	if st := srv.Stats().Server; st.Streams == 0 {
		t.Error("stats did not count the stream")
	}
}

// TestMapStreamNDJSON posts NDJSON reads and validates the NDJSON
// response: one record per read, in order, positions near the simulated
// truth, and per-read errors in-band.
func TestMapStreamNDJSON(t *testing.T) {
	base, _, reads := streamFixture(t)

	var body bytes.Buffer
	for i, r := range reads {
		line, _ := json.Marshal(ndjsonReadLine{Name: fmt.Sprintf("sim%d", i), Seq: string(alphabet.DNA.Decode(r.Seq))})
		body.Write(line)
		body.WriteByte('\n')
	}
	// One bad read mid-stream: must come back as an in-band error without
	// ending the stream.
	bad, _ := json.Marshal(ndjsonReadLine{Name: "bad", Seq: "ACGTXXACGT"})
	body.Write(bad)
	body.WriteByte('\n')

	resp := postStream(t, base, body.Bytes(), "application/x-ndjson", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	var lines []StreamMapResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var res StreamMapResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, res)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(reads)+1 {
		t.Fatalf("%d NDJSON records, want %d", len(lines), len(reads)+1)
	}
	mapped := 0
	for i, res := range lines {
		if res.Index != i {
			t.Errorf("record %d has index %d (ordered stream)", i, res.Index)
		}
		if i == len(reads) {
			if res.Error == "" || res.Name != "bad" {
				t.Errorf("bad read: %+v, want in-band error", res)
			}
			continue
		}
		if res.Error != "" {
			t.Errorf("read %d: unexpected error %q", i, res.Error)
			continue
		}
		if !res.Mapped {
			continue
		}
		mapped++
		if d := res.Pos - reads[i].Pos; d < -30 || d > 30 {
			t.Errorf("read %d mapped at %d, simulated at %d", i, res.Pos, reads[i].Pos)
		}
	}
	if mapped < len(reads)-1 {
		t.Errorf("only %d/%d reads mapped", mapped, len(reads))
	}
}

// TestMapStreamInputErrors pins the failure modes: no preloaded
// reference, malformed body, and an input that breaks mid-stream.
func TestMapStreamInputErrors(t *testing.T) {
	eng := newTestEngine(t)
	_, noRef := startServer(t, Config{Engine: eng})
	resp := postStream(t, noRef, []byte(">r\nACGT\n"), "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no-ref status %d, want 400", resp.StatusCode)
	}

	base, _, _ := streamFixture(t)
	resp = postStream(t, base, []byte("not a sequence file"), "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status %d, want 400", resp.StatusCode)
	}

	// FASTA that turns corrupt after one good record: the good record is
	// served, then a final in-band input error line.
	body := []byte(">ok\nACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT\n>broken\nAC>GT\n")
	resp = postStream(t, base, body, "", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var lines []StreamMapResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var res StreamMapResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, res)
	}
	if len(lines) != 2 {
		t.Fatalf("%d records, want good read + input error: %+v", len(lines), lines)
	}
	if lines[0].Name != "ok" || lines[0].Error != "" {
		t.Errorf("first record = %+v", lines[0])
	}
	if lines[1].Index != -1 || !strings.Contains(lines[1].Error, "stray") {
		t.Errorf("trailer = %+v, want input error mentioning the stray marker", lines[1])
	}
}

// TestMapStreamDecompressedCap pins that MaxStreamBytes bounds the
// decompressed stream: a small gzip body that inflates past the cap must
// end the stream with an in-band error, not expand into unbounded work.
func TestMapStreamDecompressedCap(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(20000))
	eng := newTestEngine(t)
	_, base := startServer(t, Config{
		Engine:         eng,
		RefName:        "chrC",
		Ref:            alphabet.DNA.Decode(genome),
		MaxStreamBytes: 4096,
	})

	// ~160 KB of FASTA that gzips far below the 4 KiB cap.
	var raw bytes.Buffer
	raw.WriteString(">bomb\n")
	for range 2000 {
		raw.WriteString(strings.Repeat("ACGTACGT", 10) + "\n")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw.Bytes())
	zw.Close()
	if gz.Len() >= 4096 {
		t.Fatalf("fixture did not compress below the cap: %d bytes", gz.Len())
	}

	resp := postStream(t, base, gz.Bytes(), "", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "exceeds 4096 decompressed bytes") {
		t.Fatalf("response does not report the decompressed cap:\n%s", out)
	}
}

// TestMapStreamFullDuplex pins HTTP/1 full-duplex streaming: the server
// must keep reading the request body after it has flushed responses. The
// body is fed through a pipe one read at a time, each written only after
// the previous read's result has arrived — without EnableFullDuplex the
// HTTP/1 server closes the body at the first flush and the later reads
// are lost.
func TestMapStreamFullDuplex(t *testing.T) {
	// One workspace reads the body on the handler goroutine between
	// flushes; the default engine reads it on MapStream's dispatcher.
	t.Run("one-workspace", func(t *testing.T) { testMapStreamFullDuplex(t, genasm.WithMaxWorkspaces(1)) })
	t.Run("default", func(t *testing.T) { testMapStreamFullDuplex(t) })
}

func testMapStreamFullDuplex(t *testing.T, opts ...genasm.Option) {
	base, _, reads := streamFixture(t, opts...)

	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", base+"/v1/map/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")

	line := func(i int) []byte {
		b, _ := json.Marshal(ndjsonReadLine{Name: fmt.Sprintf("sim%d", i), Seq: string(alphabet.DNA.Decode(reads[i].Seq))})
		return append(b, '\n')
	}

	// Watchdog: a regression here hangs (the pipe write blocks forever once
	// the server stops reading), so force failure instead of a test timeout.
	watchdog := time.AfterFunc(30*time.Second, func() {
		pw.CloseWithError(fmt.Errorf("watchdog: server stopped reading the request body"))
	})
	defer watchdog.Stop()

	// First read goes in before Do: the response (and its headers) only
	// starts once the first result is produced.
	go pw.Write(line(0))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	for i := range 3 {
		if !sc.Scan() {
			t.Fatalf("stream ended before result %d (body reads after first flush were dropped): %v", i, sc.Err())
		}
		var res StreamMapResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("result %d: bad NDJSON %q: %v", i, sc.Text(), err)
		}
		if res.Index != i || res.Name != fmt.Sprintf("sim%d", i) || res.Error != "" {
			t.Fatalf("result %d = %+v", i, res)
		}
		// Only after result i arrives does read i+1 enter the request body.
		if i < 2 {
			if _, err := pw.Write(line(i + 1)); err != nil {
				t.Fatalf("writing read %d: %v", i+1, err)
			}
		}
	}
	pw.Close()
	if sc.Scan() {
		t.Fatalf("unexpected trailing record %q", sc.Text())
	}
}

// TestMapStreamNestedGzipRejected pins the gzip-bomb defense against a
// double-compressed body: the handler unwraps and caps one layer, and a
// second layer (which seqio would sniff and inflate beneath the cap) must
// be rejected, not decompressed.
func TestMapStreamNestedGzipRejected(t *testing.T) {
	base, _, _ := streamFixture(t)

	var inner bytes.Buffer
	zw := gzip.NewWriter(&inner)
	zw.Write([]byte(">r\nACGTACGT\n"))
	zw.Close()
	var outer bytes.Buffer
	zw = gzip.NewWriter(&outer)
	zw.Write(inner.Bytes())
	zw.Close()

	for _, hdr := range []map[string]string{
		{"Content-Encoding": "gzip"}, // declared outer layer
		nil,                          // sniffed outer layer
	} {
		resp := postStream(t, base, outer.Bytes(), "", hdr)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("hdr %v: status %d, want 400", hdr, resp.StatusCode)
		}
		if !strings.Contains(string(body), "nested gzip") {
			t.Errorf("hdr %v: error %q does not mention nested gzip", hdr, body)
		}
	}
}

// TestMapStreamSAMErrorTrailer pins that a SAM response truncated by a
// mid-stream failure — corrupt input or a per-read mapping error —
// carries a detectable @CO trailer instead of looking like a complete,
// shorter stream.
func TestMapStreamSAMErrorTrailer(t *testing.T) {
	base, _, _ := streamFixture(t)

	for _, tc := range []struct {
		name, body, want string
	}{
		{"corrupt input", ">ok\nACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT\n>broken\nAC>GT\n", "stray"},
		{"per-read error", ">ok\nACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT\n>bad\nACGTXXACGT\n", "bad"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postStream(t, base, []byte(tc.body), "", map[string]string{"Accept": "text/x-sam"})
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			out, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
			last := lines[len(lines)-1]
			if !strings.HasPrefix(last, "@CO\t") || !strings.Contains(last, tc.want) {
				t.Fatalf("last SAM line %q, want @CO trailer mentioning %q:\n%s", last, tc.want, out)
			}
		})
	}
}

// TestMapStreamSAMEarlyAbortJoins pins that an early SAM abort (per-read
// error at the head of a long stream) joins the pipeline before the
// handler reads src.err or returns: under -race this catches the handler
// racing the dispatcher goroutine still parsing the request body.
func TestMapStreamSAMEarlyAbortJoins(t *testing.T) {
	base, _, reads := streamFixture(t)

	// First read fails mapping (bad letters) and aborts the SAM render; a
	// corrupt record directly behind it makes the dispatcher write src.err
	// around the moment the handler's trailer reads it — without the
	// drain-and-join these two unsynchronized accesses are a data race.
	// (reads is unused here: the body needs no mappable records.)
	_ = reads
	body := []byte(">bad\nACGTXXACGT\n>broken\nAC>GT\n")
	resp := postStream(t, base, body, "", map[string]string{"Accept": "text/x-sam"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	last := lines[len(lines)-1]
	// The trailer carries the per-read error, or the input corruption when
	// the dispatcher reached it before the cancel — both are valid
	// truncation reports.
	if !strings.HasPrefix(last, "@CO\t") || !(strings.Contains(last, "bad") || strings.Contains(last, "stray")) {
		t.Fatalf("last SAM line %q, want @CO trailer for the aborted stream:\n%s", last, out)
	}
}

// TestStatsQueueObservability pins the new stats fields so streaming load
// is visible: queue_used reflects held slots and returns to zero.
func TestStatsQueueObservability(t *testing.T) {
	eng := newTestEngine(t)
	srv, base := startServer(t, Config{Engine: eng, QueueDepth: 7})
	st := srv.Stats().Server
	if st.QueueDepth != 7 || st.QueueUsed != 0 || st.InFlightRequests != 0 {
		t.Fatalf("idle stats = %+v", st)
	}
	postJSON(t, base+"/v1/align", AlignRequest{Text: "ACGTACGT", Query: "ACGT"})
	st = srv.Stats().Server
	if st.QueueUsed != 0 || st.InFlightRequests != 0 {
		t.Fatalf("post-drain stats = %+v (slots must be released)", st)
	}
	if st.Requests == 0 {
		t.Fatal("request not counted")
	}
}
