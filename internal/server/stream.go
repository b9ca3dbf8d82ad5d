package server

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"genasm"
	"genasm/seqio"
)

// The /v1/map/stream endpoint is the serving face of the streaming-first
// pipeline: a FASTQ/FASTA (optionally gzipped) or NDJSON body of reads is
// pulled from the request incrementally, fanned out through
// Mapper.MapStream, and the response — NDJSON mapping records or SAM —
// is flushed record by record. Memory is bounded by the engine capacity,
// not the request size, and a slow client throttles the whole pipeline
// back through the unread request body (flush-per-record backpressure).

// StreamMapResult is one NDJSON line of a /v1/map/stream response.
// Exactly one of the mapping fields or Error is meaningful.
type StreamMapResult struct {
	// Index is the 0-based position of the read in the request stream.
	Index int `json:"index"`
	// Name of the read ("readN" when the input carried none).
	Name   string `json:"name"`
	Mapped bool   `json:"mapped"`
	// Pos is the 0-based reference position of the best alignment
	// (meaningful only when Mapped).
	Pos          int    `json:"pos"`
	RevComp      bool   `json:"rev_comp,omitempty"`
	CIGAR        string `json:"cigar,omitempty"`
	ClassicCIGAR string `json:"classic_cigar,omitempty"`
	Distance     int    `json:"distance"`
	// Error reports a per-read failure (bad letters) or, on the final
	// line, a request-body parse failure that ended the stream early.
	Error string `json:"error,omitempty"`
}

// streamReadSource turns a request body into an iter.Seq of reads plus a
// deferred parse-error slot checked after the stream drains.
//
// reads runs on MapStream's dispatcher goroutine, so err is written
// there; the handler may read it only after the result stream has been
// consumed to completion (which happens-after the dispatcher finishes).
// The stream helpers below drain rather than abandon the results on
// early exit for exactly this reason — abandoning would also leave the
// dispatcher reading r.Body after the handler returns.
type streamReadSource struct {
	reads iter.Seq[genasm.Read]
	// err holds the first input parse/validation error; dispatch stops at
	// the read before it.
	err error
}

// ndjsonReadLine is one line of an NDJSON request body.
type ndjsonReadLine struct {
	Name string `json:"name"`
	Seq  string `json:"seq"`
}

// newNDJSONSource streams reads out of an NDJSON body, one
// {"name","seq"} object per line. Cancelling ctx stops the source, so a
// drain after early exit ends promptly instead of parsing the rest of
// the body.
func (s *Server) newNDJSONSource(ctx context.Context, body io.Reader) *streamReadSource {
	src := &streamReadSource{}
	src.reads = func(yield func(genasm.Read) bool) {
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 64<<10), 4*(s.cfg.MaxSeqLen+1024))
		line := 0
		for sc.Scan() {
			if ctx.Err() != nil {
				return
			}
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" {
				continue
			}
			var rd ndjsonReadLine
			if err := json.Unmarshal([]byte(text), &rd); err != nil {
				src.err = fmt.Errorf("ndjson line %d: %v", line, err)
				return
			}
			if len(rd.Seq) == 0 || len(rd.Seq) > s.cfg.MaxSeqLen {
				src.err = fmt.Errorf("ndjson line %d: read %q: sequence length %d outside (0, %d]",
					line, rd.Name, len(rd.Seq), s.cfg.MaxSeqLen)
				return
			}
			if !yield(genasm.Read{Name: rd.Name, Seq: []byte(rd.Seq)}) {
				return
			}
		}
		if err := sc.Err(); err != nil {
			src.err = fmt.Errorf("ndjson line %d: %v", line+1, err)
		}
	}
	return src
}

// newSeqSource streams reads out of a FASTA/FASTQ body (gzip
// autodetected) via seqio. Cancelling ctx stops the source, so a drain
// after early exit ends promptly instead of parsing the rest of the body.
func (s *Server) newSeqSource(ctx context.Context, body io.Reader) (*streamReadSource, error) {
	sr, err := seqio.NewReader(body)
	if err != nil {
		return nil, err
	}
	src := &streamReadSource{}
	src.reads = func(yield func(genasm.Read) bool) {
		for rec, err := range sr.Records() {
			if ctx.Err() != nil {
				return
			}
			if err != nil {
				src.err = err
				return
			}
			if len(rec.Seq) == 0 || len(rec.Seq) > s.cfg.MaxSeqLen {
				src.err = fmt.Errorf("read %q: sequence length %d outside (0, %d]", rec.Name, len(rec.Seq), s.cfg.MaxSeqLen)
				return
			}
			if !yield(genasm.Read{Name: rec.Name, Seq: rec.Seq}) {
				return
			}
		}
	}
	return src, nil
}

// handleMapStream serves POST /v1/map/stream: reads in (FASTA/FASTQ/
// NDJSON), mapping records out (NDJSON, or SAM with "Accept: text/x-sam"),
// one flushed record at a time. The reference is named with ?ref= (or
// implied when exactly one is registered) and stays pinned — and therefore
// mapped — for the whole stream, even if it is evicted or removed from the
// registry mid-request.
func (s *Server) handleMapStream(w http.ResponseWriter, r *http.Request) {
	h := s.acquireRef(w, r, r.URL.Query().Get("ref"))
	if h == nil {
		return
	}
	defer h.Release()
	m := h.Mapper()

	// MaxStreamBytes bounds the request compressed AND decompressed: the
	// wire-level MaxBytesReader alone would let a small gzip bomb expand
	// into ~1000x that much mapping work, so the gzip layer is unwrapped
	// here (not left to seqio's sniffing) and capped again after
	// decompression.
	body := io.Reader(http.MaxBytesReader(w, r.Body, s.cfg.MaxStreamBytes))
	decompressed := false
	if r.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(body)
		if err != nil {
			s.httpError(w, r, http.StatusBadRequest, "bad_request", "map/stream: gzip body: "+err.Error())
			return
		}
		body = zr
		decompressed = true
	} else {
		br := bufio.NewReader(body)
		if gzipMagic(br) {
			zr, err := gzip.NewReader(br)
			if err != nil {
				s.httpError(w, r, http.StatusBadRequest, "bad_request", "map/stream: gzip body: "+err.Error())
				return
			}
			body = zr
			decompressed = true
		} else {
			body = br
		}
	}
	body = &cappedReader{r: body, left: s.cfg.MaxStreamBytes, limit: s.cfg.MaxStreamBytes}
	if decompressed {
		// A second gzip layer would be sniffed by seqio and decompressed
		// BENEATH the cap just applied, reopening the bomb the cap closes;
		// reject nested gzip outright.
		br := bufio.NewReader(body)
		if gzipMagic(br) {
			s.httpError(w, r, http.StatusBadRequest, "bad_request", "map/stream: nested gzip body not supported")
			return
		}
		body = br
	}

	// A handler-scoped cancel lets the response side abort the pipeline
	// (dead client, aborted SAM stream) and then cheaply drain it: the
	// sources above stop on ctx, so the drain joins the dispatcher without
	// parsing the rest of the body.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	rc := http.NewResponseController(w)

	// Two external events also truncate the stream — graceful shutdown
	// (stopStreams) and an idle timeout — and both must be distinguishable
	// in the trailer/error record, so their reason is latched before the
	// cancel. Cancelling alone is not enough to end the stream: the
	// dispatcher may be blocked reading the request body, so each abort
	// also expires the connection's read deadline to fail that read (the
	// write side is untouched — the truncation record still goes out).
	abort := &streamAbort{}
	go func() {
		select {
		case <-s.stopStreams:
			abort.set("server shutting down")
			cancel()
			rc.SetReadDeadline(time.Now())
		case <-ctx.Done():
		}
	}()
	touch := func() {}
	if s.cfg.StreamIdleTimeout > 0 {
		idle := time.AfterFunc(s.cfg.StreamIdleTimeout, func() {
			abort.set(fmt.Sprintf("no record moved for %s (idle timeout)", s.cfg.StreamIdleTimeout))
			cancel()
			rc.SetReadDeadline(time.Now())
		})
		defer idle.Stop()
		touch = func() { idle.Reset(s.cfg.StreamIdleTimeout) }
	}

	var src *streamReadSource
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/x-ndjson") || strings.HasPrefix(ct, "application/json") {
		src = s.newNDJSONSource(ctx, body)
	} else {
		var err error
		if src, err = s.newSeqSource(ctx, body); err != nil {
			s.httpError(w, r, http.StatusBadRequest, "input", "map/stream: "+err.Error())
			return
		}
	}

	if !s.acquireSlot(w, r) {
		return
	}
	defer s.releaseSlot()
	s.m.streamsStarted.Inc()

	// MapStream's dispatcher goroutine keeps reading the request body while
	// results are flushed below. Without full duplex, Go's HTTP/1 server
	// drains the unread body into io.Discard and closes it at the first
	// flush, losing every read not yet buffered — exactly the large
	// streaming uploads this endpoint exists for. HTTP/2+ interleaves
	// natively, so an unsupported error only matters on HTTP/1.
	if err := rc.EnableFullDuplex(); err != nil && r.ProtoMajor < 2 {
		s.httpError(w, r, http.StatusInternalServerError, "internal",
			"map/stream: full-duplex streaming unsupported: "+err.Error())
		return
	}

	results := m.MapStream(ctx, src.reads)
	if strings.Contains(r.Header.Get("Accept"), "text/x-sam") {
		s.streamSAM(ctx, w, rc, cancel, m, src, abort, touch, results)
		return
	}
	s.streamNDJSON(ctx, w, rc, cancel, src, abort, touch, results)
}

// streamAbort latches the first external reason a stream was cancelled
// (shutdown, idle timeout), so the truncation report can name it.
type streamAbort struct{ reason atomic.Pointer[string] }

func (a *streamAbort) set(reason string) { a.reason.CompareAndSwap(nil, &reason) }

func (a *streamAbort) get() string {
	if p := a.reason.Load(); p != nil {
		return *p
	}
	return ""
}

// streamNDJSON writes one JSON mapping record per line, flushing after
// each so the client sees results as reads are mapped.
func (s *Server) streamNDJSON(ctx context.Context, w http.ResponseWriter, rc *http.ResponseController, cancel context.CancelFunc, src *streamReadSource, abort *streamAbort, touch func(), results iter.Seq[genasm.MappingResult]) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	stopped := false
	for res := range results {
		if stopped {
			continue
		}
		touch()
		line := StreamMapResult{Index: res.Index, Name: res.Mapping.Name}
		if line.Name == "" {
			line.Name = fmt.Sprintf("read%d", res.Index)
		}
		if res.Err != nil {
			line.Error = res.Err.Error()
			s.m.errors.With("input").Inc()
		} else {
			mp := res.Mapping
			line.Mapped = mp.Mapped
			line.Pos = mp.Pos
			line.RevComp = mp.RevComp
			line.CIGAR = mp.CIGAR()
			line.ClassicCIGAR = mp.ClassicCIGAR()
			line.Distance = mp.Distance
			s.m.alignments.Inc()
		}
		if err := enc.Encode(line); err != nil {
			// Client went away: cancel the pipeline and keep draining so
			// the handler does not return while the dispatcher is still
			// reading the request body (and writing src.err).
			stopped = true
			cancel()
			continue
		}
		rc.Flush()
	}
	if stopped {
		s.streamTruncated(ctx, "client went away mid-stream")
		return
	}
	if reason := abort.get(); reason != "" {
		// Shutdown or idle timeout ended the stream early: report it
		// in-band as a final error record so the client can tell the
		// truncated stream from a complete one.
		s.streamTruncated(ctx, reason)
		enc.Encode(StreamMapResult{Index: -1, Error: reason + " (stream truncated)"})
		rc.Flush()
		return
	}
	if src.err != nil {
		// The input broke mid-stream: report it in-band as a final record
		// (headers are long gone).
		s.streamTruncated(ctx, "input: "+src.err.Error())
		enc.Encode(StreamMapResult{Index: -1, Error: "input: " + src.err.Error()})
		rc.Flush()
		return
	}
	s.m.streamsCompleted.Inc()
}

// streamTruncated records a stream cut short — counter, error kind, and a
// warn log carrying the request ID.
func (s *Server) streamTruncated(ctx context.Context, reason string) {
	s.m.streamsTruncated.Inc()
	s.m.errors.With("stream_truncated").Inc()
	s.logger.LogAttrs(ctx, slog.LevelWarn, "stream truncated",
		slog.String("rid", requestID(ctx)),
		slog.String("reason", reason))
}

// gzipMagic reports whether the next bytes of br are the gzip magic
// number, without consuming them.
func gzipMagic(br *bufio.Reader) bool {
	magic, err := br.Peek(2)
	return err == nil && magic[0] == 0x1f && magic[1] == 0x8b
}

// cappedReader fails — rather than silently truncating, the way
// io.LimitReader would — once more than limit bytes flow through it.
type cappedReader struct {
	r     io.Reader
	left  int64
	limit int64
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.left <= 0 {
		// Distinguish "exactly at the limit" from "over it" by probing
		// for one more byte.
		var one [1]byte
		n, err := c.r.Read(one[:])
		if n > 0 {
			return 0, fmt.Errorf("stream exceeds %d decompressed bytes", c.limit)
		}
		if err != nil {
			return 0, err
		}
		return 0, io.ErrNoProgress
	}
	if int64(len(p)) > c.left {
		p = p[:c.left]
	}
	n, err := c.r.Read(p)
	c.left -= int64(n)
	return n, err
}

// flushWriter flushes the response after every write, so each SAM record
// batch reaches the client as it is produced.
type flushWriter struct {
	w  io.Writer
	rc *http.ResponseController
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.rc.Flush()
	return n, err
}

// streamSAM renders the result stream as SAM. An input that breaks
// mid-stream or a per-read mapping error ends the records early; since
// SAM has no record-level error channel, a trailing "@CO" comment line
// reports the failure so clients can tell a truncated stream from a
// complete one (a bare 200 with fewer records would look complete).
func (s *Server) streamSAM(ctx context.Context, w http.ResponseWriter, rc *http.ResponseController, cancel context.CancelFunc, m *genasm.Mapper, src *streamReadSource, abort *streamAbort, touch func(), results iter.Seq[genasm.MappingResult]) {
	w.Header().Set("Content-Type", "text/x-sam; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fw := flushWriter{w: w, rc: rc}
	err := m.WriteSAMStream(fw, func(yield func(genasm.MappingResult) bool) {
		stopped := false
		for res := range results {
			if stopped {
				continue
			}
			touch()
			if res.Err == nil {
				s.m.alignments.Inc()
			}
			if !yield(res) {
				// WriteSAMStream aborted (per-read error or dead client):
				// cancel the pipeline and keep draining so src.err is
				// settled — and the request body no longer being read —
				// before the trailer below looks at it.
				stopped = true
				cancel()
			}
		}
	})
	if err != nil || src.err != nil || abort.get() != "" {
		// An external abort (shutdown, idle timeout) is the root cause even
		// when it also failed the body read; then the input error; err
		// alone is a per-read mapping error or a write failure (in which
		// case this trailer is a best-effort no-op on a dead connection).
		var cause string
		switch {
		case abort.get() != "":
			cause = abort.get()
		case src.err != nil:
			cause = src.err.Error()
		default:
			cause = err.Error()
		}
		s.streamTruncated(ctx, cause)
		fmt.Fprintf(fw, "@CO\tgenasm-serve: error: %s (stream truncated)\n", cause)
		return
	}
	s.m.streamsCompleted.Inc()
}
