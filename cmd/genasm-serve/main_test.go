package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"genasm"
	"genasm/internal/alphabet"
	"genasm/internal/metrics"
	"genasm/internal/seq"
	"genasm/internal/simulate"
)

// startFromFlags builds the server exactly as main does and serves it on a
// loopback listener, returning the base URL.
func startFromFlags(t *testing.T, args []string) string {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return "http://" + l.Addr().String()
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// TestEndToEnd wires flags into a served binary configuration and
// round-trips align, batch, map, healthz and stats requests.
func TestEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	genome := seq.Genome(rng, seq.DefaultGenomeConfig(20000))
	reads, err := simulate.Reads(rng, genome, 3, simulate.Illumina150, false)
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(t.TempDir(), "ref.fasta")
	fasta := ">chrT test reference\n" + string(alphabet.DNA.Decode(genome)) + "\n"
	if err := os.WriteFile(refPath, []byte(fasta), 0o644); err != nil {
		t.Fatal(err)
	}

	base := startFromFlags(t, []string{
		"-workspaces", "4", "-queue", "8", "-search-start=false", "-ref", refPath,
	})

	// healthz
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// align
	code, body := post(t, base+"/v1/align", `{"text":"TTACGGATCGTT","query":"TTACGGTTCGTT"}`)
	if code != http.StatusOK {
		t.Fatalf("align: %d %s", code, body)
	}
	var aln struct {
		Distance int    `json:"distance"`
		CIGAR    string `json:"cigar"`
	}
	if err := json.Unmarshal([]byte(body), &aln); err != nil {
		t.Fatal(err)
	}
	if aln.Distance != 1 || aln.CIGAR == "" {
		t.Errorf("align response %s", body)
	}

	// batch
	code, body = post(t, base+"/v1/batch",
		`{"jobs":[{"text":"ACGTACGT","query":"ACGTACGT","global":true},{"text":"ACGTACGT","query":"ACTTACGT","global":true}]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	var batch struct {
		Results []struct {
			Alignment *struct {
				Distance int `json:"distance"`
			} `json:"alignment"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 ||
		batch.Results[0].Alignment.Distance != 0 || batch.Results[1].Alignment.Distance != 1 {
		t.Errorf("batch response %s", body)
	}

	// map against the preloaded FASTA reference
	mapReq := `{"reads":[`
	for i, r := range reads {
		if i > 0 {
			mapReq += ","
		}
		mapReq += fmt.Sprintf(`{"name":"r%d","seq":"%s"}`, i, alphabet.DNA.Decode(r.Seq))
	}
	mapReq += `]}`
	code, body = post(t, base+"/v1/map", mapReq)
	if code != http.StatusOK {
		t.Fatalf("map: %d %s", code, body)
	}
	if !strings.Contains(body, "SN:chrT") {
		t.Errorf("map response lacks reference header:\n%s", body)
	}
	if n := strings.Count(body, "\nr"); n != len(reads) {
		t.Errorf("map response has %d records, want %d:\n%s", n, len(reads), body)
	}

	// stats
	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Server struct {
			Requests uint64 `json:"requests"`
		} `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Server.Requests < 3 {
		t.Errorf("stats requests=%d, want >=3", st.Server.Requests)
	}
}

// TestOpsSurface serves the private operations handler the way -ops-addr
// does and checks /metrics (lint-clean exposition) and pprof respond.
func TestOpsSurface(t *testing.T) {
	o, err := parseFlags([]string{"-workspaces", "2", "-log", "off"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	api, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ops := &http.Server{Handler: s.OpsHandler()}
	go ops.Serve(l)
	go s.Serve(api)
	t.Cleanup(func() {
		ops.Close()
		s.Shutdown(context.Background())
	})
	opsBase := "http://" + l.Addr().String()
	apiBase := "http://" + api.Addr().String()

	// Drive one alignment through the API so the scrape has data.
	if code, body := post(t, apiBase+"/v1/align", `{"text":"ACGTACGT","query":"ACGT"}`); code != http.StatusOK {
		t.Fatalf("align: %d %s", code, body)
	}

	resp, err := http.Get(opsBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ops /metrics: %d", resp.StatusCode)
	}
	if err := metrics.Lint(bytes.NewReader(exposition)); err != nil {
		t.Fatalf("ops /metrics fails lint: %v", err)
	}
	for _, want := range []string{"genasm_http_requests_total", "genasm_align_seconds", "genasm_pool_capacity"} {
		if !strings.Contains(string(exposition), want) {
			t.Errorf("ops /metrics lacks %s", want)
		}
	}

	resp, err = http.Get(opsBase + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline: %d", resp.StatusCode)
	}

	// The API listener serves /metrics too (same registry).
	resp, err = http.Get(apiBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("api /metrics: %d", resp.StatusCode)
	}
}

func TestLogFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-log", "text"}, {"-log", "json"}, {"-log", "off"},
		{"-log-level", "debug"}, {"-log-level", "warn"},
	} {
		o, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := buildLogger(o); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
	for _, args := range [][]string{{"-log", "xml"}, {"-log-level", "loud"}} {
		o, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := buildLogger(o); err == nil {
			t.Errorf("%v: expected error", args)
		}
	}
}

func TestBadFlags(t *testing.T) {
	if _, err := parseFlags([]string{"-alphabet", "dna"}); err != nil {
		t.Errorf("lowercase alphabet should parse: %v", err)
	}
	o, err := parseFlags([]string{"-alphabet", "klingon"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildServer(o); err == nil {
		t.Error("expected error for unknown alphabet")
	}
	o, err = parseFlags([]string{"-window", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildServer(o); err == nil {
		t.Error("expected error for invalid window size")
	}
	o, err = parseFlags([]string{"-error-rate", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildServer(o); err == nil {
		t.Error("expected error for an error rate above 1")
	}
}

// TestMultiRefEndToEnd drives the multi-reference serving path the way a
// deployment would: a -ref-dir of prebuilt indexes, named /v1/map?ref=
// requests against both references concurrently, a hot removal under that
// load (in-flight requests keep working; new ones 404), and the /metrics
// evidence — per-reference index descriptors and priority-class admission
// counters.
func TestMultiRefEndToEnd(t *testing.T) {
	eng, err := genasm.NewEngine(genasm.WithSearchStart(true))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	genomes := map[string][]byte{}
	readBodies := map[string]string{}
	for i, name := range []string{"chr1", "chr2"} {
		rng := rand.New(rand.NewPCG(uint64(40+i), 0))
		genome := seq.Genome(rng, seq.DefaultGenomeConfig(20000))
		genomes[name] = genome
		ri, err := eng.BuildRefIndex(alphabet.DNA.Decode(genome), genasm.RefIndexConfig{RefName: name})
		if err != nil {
			t.Fatal(err)
		}
		if err := ri.WriteFile(filepath.Join(dir, name+".gasmidx")); err != nil {
			t.Fatal(err)
		}
		ri.Close()
		reads, err := simulate.Reads(rng, genome, 3, simulate.Illumina150, false)
		if err != nil {
			t.Fatal(err)
		}
		body := `{"reads":[`
		for j, r := range reads {
			if j > 0 {
				body += ","
			}
			body += fmt.Sprintf(`{"name":"q%d","seq":"%s"}`, j, alphabet.DNA.Decode(r.Seq))
		}
		readBodies[name] = body + `]}`
	}

	base := startFromFlags(t, []string{
		"-workspaces", "4", "-queue", "16", "-log", "off",
		"-ref-dir", dir, "-max-resident-bytes", "100000000",
	})

	// Both references serve concurrently under their own names.
	var wg sync.WaitGroup
	for _, name := range []string{"chr1", "chr2"} {
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				code, body := post(t, base+"/v1/map?ref="+name, readBodies[name])
				if code != http.StatusOK {
					t.Errorf("map %s: %d %s", name, code, body)
					return
				}
				if !strings.Contains(body, "SN:"+name) {
					t.Errorf("map %s: wrong SAM reference header:\n%s", name, body)
				}
			}()
		}
	}
	wg.Wait()

	// Hot-remove chr2 while chr1 keeps taking traffic: the chr1 requests
	// must not fail, and chr2 becomes 404.
	stop := make(chan struct{})
	var loadWg sync.WaitGroup
	loadWg.Add(1)
	go func() {
		defer loadWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if code, body := post(t, base+"/v1/map?ref=chr1", readBodies["chr1"]); code != http.StatusOK {
				t.Errorf("map chr1 during removal: %d %s", code, body)
				return
			}
		}
	}()
	req, err := http.NewRequest("DELETE", base+"/v1/refs/chr2", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete chr2: %d", dresp.StatusCode)
	}
	if code, _ := post(t, base+"/v1/map?ref=chr2", readBodies["chr2"]); code != http.StatusNotFound {
		t.Errorf("map removed chr2: %d, want 404", code)
	}
	close(stop)
	loadWg.Wait()

	// One batch-class request so both admission classes show on /metrics.
	breq, err := http.NewRequest("POST", base+"/v1/align",
		strings.NewReader(`{"text":"ACGTACGT","query":"ACGT"}`))
	if err != nil {
		t.Fatal(err)
	}
	breq.Header.Set("Content-Type", "application/json")
	breq.Header.Set("X-Genasm-Priority", "batch")
	bresp, err := http.DefaultClient.Do(breq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("batch-class align: %d", bresp.StatusCode)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err := metrics.Lint(bytes.NewReader(exposition)); err != nil {
		t.Fatalf("/metrics fails lint: %v", err)
	}
	for _, want := range []string{
		`genasm_index_info{ref="chr1",backend=`,
		`genasm_index_info{ref="chr2",backend=`,
		`genasm_admission_total{class="interactive",outcome="admitted"}`,
		`genasm_admission_total{class="batch",outcome="admitted"}`,
		"genasm_ref_loads_total",
		"genasm_ref_evictions_total",
		"genasm_refs_resident_bytes",
	} {
		if !strings.Contains(string(exposition), want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}

	// /v1/refs reflects the removal.
	rresp, err := http.Get(base + "/v1/refs")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	var listing struct {
		Refs []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"refs"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Refs) != 1 || listing.Refs[0].Name != "chr1" || listing.Refs[0].State != "loaded" {
		t.Errorf("refs listing after removal: %+v", listing.Refs)
	}
}
