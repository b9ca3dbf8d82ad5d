// Package sam renders mappings in the SAM format (Li et al. 2009), the
// standard output of read alignment — the CIGAR string produced by
// GenASM-TB is "the optimal alignment ... defined using a CIGAR string"
// (Section 2.1), and SAM is where those CIGARs live in practice.
//
// Only the subset needed by this repository's mapper is implemented:
// single-reference headers, the mandatory 11 columns and the NM (edit
// distance) and AS (alignment score) tags.
package sam

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"genasm/internal/alphabet"
	"genasm/internal/cigar"
)

// Flag bits (subset).
const (
	FlagReverse  = 0x10
	FlagUnmapped = 0x4
)

// Record is one SAM alignment line.
type Record struct {
	// QName is the read name.
	QName string
	// Flag is the bitwise flag field.
	Flag int
	// RName is the reference name ("*" when unmapped).
	RName string
	// Pos is the 1-based mapping position (0 when unmapped).
	Pos int
	// MapQ is the mapping quality.
	MapQ int
	// Cigar of the alignment (classic M/I/D rendering is used).
	Cigar cigar.Cigar
	// Seq is the encoded read sequence (decoded to letters on output).
	Seq []byte
	// EditDistance fills the NM tag.
	EditDistance int
	// Score fills the AS tag.
	Score int
}

// Writer emits a SAM stream.
type Writer struct {
	bw     *bufio.Writer
	wroteH bool
	line   []byte // the reused line buffer
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Reset discards any unflushed output and the header state and makes the
// Writer emit a new stream to dst, keeping its buffers: a Writer reused
// through Reset writes a stream without allocating. Reset(nil) drops the
// reference to the previous destination.
func (w *Writer) Reset(dst io.Writer) {
	w.bw.Reset(dst)
	w.wroteH = false
}

// WriteHeader emits the @HD and @SQ lines for a single reference.
func (w *Writer) WriteHeader(refName string, refLen int) error {
	if w.wroteH {
		return fmt.Errorf("sam: header already written")
	}
	w.wroteH = true
	b := append(w.line[:0], "@HD\tVN:1.6\tSO:unknown\n@SQ\tSN:"...)
	b = appendName(b, refName)
	b = append(b, "\tLN:"...)
	b = strconv.AppendInt(b, int64(refLen), 10)
	b = append(b, "\n@PG\tID:genasm\tPN:genasm\n"...)
	w.line = b
	_, err := w.bw.Write(b)
	return err
}

// WriteRecord emits one alignment line. The line is built in a buffer the
// Writer reuses, so a steady stream of records allocates nothing.
func (w *Writer) WriteRecord(r Record) error {
	mapped := r.Flag&FlagUnmapped == 0
	b := appendName(w.line[:0], r.QName)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.Flag), 10)
	b = append(b, '\t')
	if mapped {
		b = appendName(b, r.RName)
		b = append(b, '\t')
		b = strconv.AppendInt(b, int64(r.Pos), 10)
	} else {
		b = append(b, "*\t0"...)
	}
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.MapQ), 10)
	b = append(b, '\t')
	if mapped {
		b = r.Cigar.AppendFormat(b, false)
	} else {
		b = append(b, '*')
	}
	b = append(b, "\t*\t0\t0\t"...)
	b = alphabet.DNA.AppendDecode(b, r.Seq)
	b = append(b, "\t*\tNM:i:"...)
	b = strconv.AppendInt(b, int64(r.EditDistance), 10)
	b = append(b, "\tAS:i:"...)
	b = strconv.AppendInt(b, int64(r.Score), 10)
	b = append(b, '\n')
	w.line = b
	_, err := w.bw.Write(b)
	return err
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// appendName appends a name as one SAM field: tab, newline, carriage
// return and space become '_', and an empty name becomes "*".
func appendName(dst []byte, s string) []byte {
	if s == "" {
		return append(dst, '*')
	}
	n := len(dst)
	dst = append(dst, s...)
	for i, c := range dst[n:] {
		if c == '\t' || c == '\n' || c == '\r' || c == ' ' {
			dst[n+i] = '_'
		}
	}
	return dst
}
