package sam

import (
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"testing"

	"genasm/internal/alphabet"
	"genasm/internal/cigar"
)

func TestHeaderAndRecord(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	if err := w.WriteHeader("chr1", 1000); err != nil {
		t.Fatal(err)
	}
	cg, _ := cigar.Parse("8=1X1=")
	err := w.WriteRecord(Record{
		QName:        "read 1",
		RName:        "chr1",
		Pos:          42,
		MapQ:         60,
		Cigar:        cg,
		Seq:          alphabet.DNA.MustEncode([]byte("ACGTACGTAC")),
		EditDistance: 1,
		Score:        14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "@HD") || !strings.Contains(lines[1], "SN:chr1\tLN:1000") {
		t.Fatalf("bad header:\n%s", out)
	}
	rec := strings.Split(lines[3], "\t")
	if len(rec) != 13 {
		t.Fatalf("record fields = %d: %q", len(rec), lines[3])
	}
	if rec[0] != "read_1" {
		t.Errorf("qname = %q (spaces must be sanitized)", rec[0])
	}
	if rec[3] != "42" || rec[5] != "10M" || rec[9] != "ACGTACGTAC" {
		t.Errorf("record wrong: %q", lines[3])
	}
	if rec[11] != "NM:i:1" || rec[12] != "AS:i:14" {
		t.Errorf("tags wrong: %q", lines[3])
	}
}

func TestUnmappedRecord(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	err := w.WriteRecord(Record{
		QName: "orphan",
		Flag:  FlagUnmapped,
		Seq:   alphabet.DNA.MustEncode([]byte("ACGT")),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Flush()
	fields := strings.Split(strings.TrimSpace(sb.String()), "\t")
	if fields[1] != "4" || fields[2] != "*" || fields[3] != "0" || fields[5] != "*" {
		t.Fatalf("unmapped record wrong: %q", sb.String())
	}
}

func TestDoubleHeaderRejected(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	if err := w.WriteHeader("x", 1); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader("x", 1); err == nil {
		t.Fatal("second header should error")
	}
}

func TestEmptyQName(t *testing.T) {
	if got := string(appendName(nil, "")); got != "*" {
		t.Errorf("appendName empty = %q", got)
	}
}

// fprintfWriteRecord is WriteRecord as it was before lines were built by
// appending, kept as a test-only oracle: sanitized name copies, a decoded
// sequence and one fmt.Fprintf per record.
func fprintfWriteRecord(w io.Writer, r Record) error {
	sanitize := func(s string) string {
		if s == "" {
			return "*"
		}
		out := []byte(s)
		for i, c := range out {
			if c == '\t' || c == '\n' || c == '\r' || c == ' ' {
				out[i] = '_'
			}
		}
		return string(out)
	}
	rname := sanitize(r.RName)
	pos := r.Pos
	cg := "*"
	if r.Flag&FlagUnmapped != 0 {
		rname, pos = "*", 0
	} else {
		cg = r.Cigar.Format(false)
	}
	seq := alphabet.DNA.Decode(r.Seq)
	_, err := fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%s\t*\t0\t0\t%s\t*\tNM:i:%d\tAS:i:%d\n",
		sanitize(r.QName), r.Flag, rname, pos, r.MapQ, cg, seq, r.EditDistance, r.Score)
	return err
}

// oracleRecords are records covering what WriteRecord renders: names with
// tab, space, CR and LF, empty QName and RName, unmapped records (with
// and without a CIGAR and position set), an empty CIGAR and sequence, and
// 10 kbp sequences with long CIGARs.
func oracleRecords() []Record {
	rng := rand.New(rand.NewPCG(24, 5))
	long := func(n int) ([]byte, cigar.Cigar) {
		seq := make([]byte, n)
		for i := range seq {
			seq[i] = byte(rng.IntN(4))
		}
		var b cigar.Builder
		for q := 0; q < n; {
			op := cigar.Op(1 + rng.IntN(4))
			k := min(1+rng.IntN(40), n-q)
			if op.ConsumesQuery() {
				q += k
			}
			b.Append(op, k)
		}
		return seq, b.Cigar()
	}
	short := alphabet.DNA.MustEncode([]byte("ACGTACGTAC"))
	cg, _ := cigar.Parse("3=1X2I4=1D")
	recs := []Record{
		{QName: "read 1", RName: "chr1", Pos: 42, MapQ: 60, Cigar: cg, Seq: short, EditDistance: 4, Score: -14},
		{QName: "a\tb\nc\rd e", RName: "chr 1\t\r\n", Pos: 1, MapQ: 60, Cigar: cg, Seq: short, Flag: FlagReverse},
		{QName: "", RName: "", Pos: 7, Cigar: cg, Seq: short},
		{QName: "", Flag: FlagUnmapped, Seq: short},
		{QName: "orphan", Flag: FlagUnmapped | FlagReverse, RName: "chr1", Pos: 99, MapQ: 3, Cigar: cg, Seq: short, EditDistance: 2, Score: 5},
		{QName: "empty", RName: "chr1", Pos: 1},
		{QName: "\t", RName: " ", Pos: 1_000_000_000, MapQ: 255, Cigar: cg, Seq: short, EditDistance: 1 << 40, Score: -(1 << 40)},
	}
	for i := range 4 {
		seq, c := long(10_000)
		rec := Record{QName: fmt.Sprintf("m64011/%d/ccs long", i), RName: "chrV", Pos: 1 + rng.IntN(1<<20), MapQ: 60,
			Cigar: c, Seq: seq, EditDistance: c.EditDistance(), Score: cigar.Minimap2.Score(c)}
		if i%2 == 1 {
			rec.Flag = FlagReverse
		}
		if i == 3 {
			rec.Flag = FlagUnmapped
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestWriteRecordMatchesFprintfOracle requires WriteRecord's bytes to
// equal fprintfWriteRecord's for every oracle record, each alone and all
// through one Writer in sequence (so the reused line buffer shrinks and
// grows between records).
func TestWriteRecordMatchesFprintfOracle(t *testing.T) {
	var all, wantAll strings.Builder
	sw := NewWriter(&all)
	for i, r := range oracleRecords() {
		var got, want strings.Builder
		w := NewWriter(&got)
		if err := w.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := fprintfWriteRecord(&want, r); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("record %d:\n got  %q\n want %q", i, got.String(), want.String())
		}
		if err := sw.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
		wantAll.WriteString(want.String())
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if all.String() != wantAll.String() {
		t.Fatal("records written through one Writer differ from the oracle's")
	}
}

// TestResetReusesWriter requires a Writer reused through Reset to emit
// exactly what a fresh Writer emits: the header (checked against its
// fmt.Sprintf rendering, names sanitized) and every oracle record, with
// the previous stream's unflushed output and header state discarded.
func TestResetReusesWriter(t *testing.T) {
	stream := func(w *Writer) {
		t.Helper()
		if err := w.WriteHeader("chr 7", 123456); err != nil {
			t.Fatal(err)
		}
		for _, r := range oracleRecords() {
			if err := w.WriteRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var fresh strings.Builder
	stream(NewWriter(&fresh))
	wantHeader := fmt.Sprintf("@HD\tVN:1.6\tSO:unknown\n@SQ\tSN:%s\tLN:%d\n@PG\tID:genasm\tPN:genasm\n", "chr_7", 123456)
	if !strings.HasPrefix(fresh.String(), wantHeader) {
		t.Fatalf("header:\n got  %q\n want %q", fresh.String()[:len(wantHeader)], wantHeader)
	}

	var discarded, reused strings.Builder
	w := NewWriter(&discarded)
	if err := w.WriteHeader("other", 1); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(oracleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	w.Reset(&reused)
	stream(w)
	if discarded.Len() != 0 {
		t.Fatalf("Reset flushed the previous stream: %q", discarded.String())
	}
	if reused.String() != fresh.String() {
		t.Fatal("a Writer reused through Reset differs from a fresh one")
	}
}
