package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"genasm"
)

// served is a genasm-serve process with the genome preloaded, driven over
// loopback HTTP by one client that waits for each reply (a closed loop).
type served struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	// stderrDone is closed once the server's stderr reaches EOF.
	stderrDone chan struct{}
}

// startServer launches the server on a free loopback port and returns once
// it answers /v1/healthz. The server holds one workspace, so a request maps
// its reads one after another, as the in-process workloads do, and it maps
// at the error rate the reads were drawn with. Fault injection is switched
// off explicitly, whatever the environment says.
func startServer(bin, fastaPath string, errRate float64) (*served, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-ref", fastaPath, "-workspaces", "1",
		"-error-rate", strconv.FormatFloat(errRate, 'g', -1, 64), "-faults=", "-log", "off")
	// The server must not outlive the benchmark, even if the benchmark
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &served{
		cmd:        cmd,
		client:     &http.Client{Timeout: 60 * time.Second},
		stderrDone: make(chan struct{}),
	}
	addr := make(chan string, 1)
	var logTail []string
	go func() {
		defer close(s.stderrDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				// Never block: this goroutine must drain stderr to EOF.
				select {
				case addr <- a:
				default:
				}
			}
			logTail = append(logTail, line)
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.stderrDone:
		s.stop()
		return nil, fmt.Errorf("genasm-serve exited before listening: %s", strings.Join(logTail, "; "))
	case <-time.After(2 * time.Minute):
		s.stop()
		return nil, errors.New("genasm-serve did not start listening within 2m")
	}
	resp, err := s.client.Get(s.base + "/v1/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/v1/healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop terminates the server and waits for it to exit.
func (s *served) stop() {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.stderrDone:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.stderrDone
	}
	s.cmd.Wait()
}

// mapBody encodes a batch as a /v1/map request body.
func mapBody(batch []genasm.Read) ([]byte, error) {
	type mapRead struct {
		Name string `json:"name"`
		Seq  string `json:"seq"`
	}
	req := struct {
		Reads []mapRead `json:"reads"`
	}{Reads: make([]mapRead, len(batch))}
	for i, r := range batch {
		req.Reads[i] = mapRead{Name: r.Name, Seq: string(r.Seq)}
	}
	return json.Marshal(req)
}

// mapBatch posts one /v1/map request and returns the SAM it answers with.
func (s *served) mapBatch(body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.base+"/v1/map", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/map answered %s: %.200s", resp.Status, out)
	}
	return out, nil
}

// stageTotals reads the mapping pipeline totals from the server's /metrics
// (the server attaches the same MapTrace hooks stageTrace sums in process),
// and the time its /v1/map handler spent.
func (s *served) stageTotals() (stageTotals, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return stageTotals{}, err
	}
	defer resp.Body.Close()
	var t stageTotals
	sec := func(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		series, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(series, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		name, labels, _ := strings.Cut(series, "{")
		switch {
		case name == "genasm_mapper_stage_seconds_sum" && strings.Contains(labels, `stage="seed"`):
			t.seed += sec(v)
		case name == "genasm_mapper_stage_seconds_sum" && strings.Contains(labels, `stage="filter"`):
			t.filter += sec(v)
		case name == "genasm_mapper_stage_seconds_sum" && strings.Contains(labels, `stage="align"`):
			t.align += sec(v)
		case name == "genasm_mapper_stage_seconds_count" && strings.Contains(labels, `stage="align"`):
			t.aligns += v
		case name == "genasm_mapper_read_seconds_sum":
			t.pipeline += sec(v)
		case name == "genasm_http_request_seconds_sum" && strings.Contains(labels, `endpoint="/v1/map"`):
			t.handler += sec(v)
		case name == "genasm_mapper_candidates_total":
			t.candidates += v
		case name == "genasm_mapper_filtered_total":
			t.rejected += v
		case name == "genasm_mapper_reads_total":
			t.reads += v
		case name == "genasm_mapper_mapped_total":
			t.mapped += v
		}
	}
	if err := sc.Err(); err != nil {
		return stageTotals{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return stageTotals{}, fmt.Errorf("/metrics answered %s", resp.Status)
	}
	return t, nil
}

// writeFASTA writes the genome as a one-record FASTA file.
func writeFASTA(path string, genome []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, ">%s\n", refName)
	for i := 0; i < len(genome); i += 80 {
		w.Write(genome[i:min(i+80, len(genome))])
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
