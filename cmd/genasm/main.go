// Command genasm exposes the GenASM framework on the command line:
//
//	genasm align   -text CGTGA -query CTGA [-global]
//	genasm editdist -a SEQ1 -b SEQ2
//	genasm filter  -region SEQ -read SEQ -k 5
//	genasm search  -text FILE|SEQ -pattern SEQ -k 2 [-bytes]
//	genasm map     -ref ref.fasta -reads reads.fastq.gz [-sam]
//	genasm index   build -ref ref.fasta -out ref.gidx [-minimizer-w 10]
//	genasm index   inspect ref.gidx
//
// Every subcommand runs on the public genasm.Engine API. Sequence
// arguments are either literal sequences or paths to FASTA/FASTQ files
// (detected by an existing file of that name; gzip and format are
// autodetected). `genasm map` streams reads through Mapper.MapStream —
// FASTQ in, SAM out, in O(1) read memory — so multi-gigabyte read sets
// map without being loaded whole.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"genasm"
	"genasm/internal/alphabet"
	"genasm/internal/seq"
	"genasm/seqio"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx := context.Background()
	var err error
	switch os.Args[1] {
	case "align":
		err = runAlign(ctx, os.Args[2:])
	case "editdist":
		err = runEditDist(ctx, os.Args[2:])
	case "filter":
		err = runFilter(ctx, os.Args[2:])
	case "search":
		err = runSearch(ctx, os.Args[2:])
	case "map":
		err = runMap(ctx, os.Args[2:])
	case "index":
		err = runIndex(os.Args[2:])
	case "simulate":
		err = runSimulate(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "genasm: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "genasm: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: genasm <align|editdist|filter|search|map|index|simulate> [flags]
  align    -text SEQ -query SEQ [-global] [-search-start]
  editdist -a SEQ -b SEQ
  filter   -region SEQ -read SEQ -k N
  search   -text SEQ|FILE -pattern SEQ -k N [-bytes]
  map      -ref FASTA[.gz] -reads FASTA|FASTQ[.gz] [-seed-k N] [-error-rate F] [-sam]
  index    build -ref FASTA[.gz] -out FILE [-seed-k N] [-minimizer-w N]
           inspect FILE
  simulate -profile NAME -n N -seed S [-ref FASTA | -genome-len N] [-format fastq|fasta]
           [-rev-comp] [-out FILE] [-genome-out FILE] [-truth FILE] [-list-profiles]`)
}

// loadSeq returns the sequence in arg: the first record of a FASTA/FASTQ
// file (gzip autodetected) if arg names one, otherwise arg itself
// (uppercased).
func loadSeq(arg string) ([]byte, error) {
	if fi, err := os.Stat(arg); err == nil && !fi.IsDir() {
		rec, err := firstRecord(arg)
		if err != nil {
			return nil, err
		}
		return rec.Seq, nil
	}
	return []byte(strings.ToUpper(arg)), nil
}

// firstRecord streams just the leading record out of a sequence file.
func firstRecord(path string) (seqio.Record, error) {
	f, err := seqio.Open(path)
	if err != nil {
		return seqio.Record{}, err
	}
	defer f.Close()
	for rec, err := range f.Records() {
		if err != nil {
			return seqio.Record{}, err
		}
		return rec, nil
	}
	return seqio.Record{}, fmt.Errorf("%s: no sequence records", path)
}

// foldAmbiguous maps any non-ACGT letters (e.g. N) to deterministic bases
// so the 2-bit public API accepts real-world records.
func foldAmbiguous(letters []byte) []byte {
	return alphabet.DNA.Decode(seq.EncodeRecord(seq.Record{Seq: letters}))
}

func runAlign(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("align", flag.ExitOnError)
	text := fs.String("text", "", "reference text (sequence or FASTA file)")
	query := fs.String("query", "", "query sequence (sequence or FASTA file)")
	global := fs.Bool("global", false, "align end-to-end instead of semi-globally")
	searchStart := fs.Bool("search-start", false, "let the alignment start at the best position in the first window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := loadSeq(*text)
	if err != nil {
		return err
	}
	q, err := loadSeq(*query)
	if err != nil {
		return err
	}
	e, err := genasm.NewEngine(genasm.WithSearchStart(*searchStart))
	if err != nil {
		return err
	}
	var aln genasm.Alignment
	if *global {
		aln, err = e.AlignGlobal(ctx, t, q)
	} else {
		aln, err = e.Align(ctx, t, q)
	}
	if err != nil {
		return err
	}
	fmt.Printf("CIGAR:      %s\n", aln.CIGAR)
	fmt.Printf("classic:    %s\n", aln.ClassicCIGAR)
	fmt.Printf("distance:   %d\n", aln.Distance)
	fmt.Printf("text span:  [%d, %d)\n", aln.TextStart, aln.TextEnd)
	fmt.Printf("score:      %d (BWA-MEM), %d (Minimap2)\n",
		aln.Score(genasm.ScoringBWAMEM), aln.Score(genasm.ScoringMinimap2))
	return nil
}

func runEditDist(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("editdist", flag.ExitOnError)
	a := fs.String("a", "", "first sequence (sequence or FASTA file)")
	b := fs.String("b", "", "second sequence (sequence or FASTA file)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sa, err := loadSeq(*a)
	if err != nil {
		return err
	}
	sb, err := loadSeq(*b)
	if err != nil {
		return err
	}
	e, err := genasm.DefaultEngine()
	if err != nil {
		return err
	}
	d, err := e.EditDistance(ctx, sa, sb)
	if err != nil {
		return err
	}
	fmt.Println(d)
	return nil
}

func runFilter(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("filter", flag.ExitOnError)
	region := fs.String("region", "", "candidate reference region")
	read := fs.String("read", "", "read sequence")
	k := fs.Int("k", 5, "edit distance threshold")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r, err := loadSeq(*region)
	if err != nil {
		return err
	}
	q, err := loadSeq(*read)
	if err != nil {
		return err
	}
	e, err := genasm.DefaultEngine()
	if err != nil {
		return err
	}
	ok, err := e.Filter(ctx, r, q, *k)
	if err != nil {
		return err
	}
	if ok {
		fmt.Println("accept")
	} else {
		fmt.Println("reject")
	}
	return nil
}

func runSearch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	text := fs.String("text", "", "text to search (sequence or FASTA file)")
	pattern := fs.String("pattern", "", "pattern to find")
	k := fs.Int("k", 0, "maximum edits")
	bytesAlpha := fs.Bool("bytes", false, "search arbitrary bytes instead of DNA")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var t []byte
	var err error
	if *bytesAlpha {
		if fi, statErr := os.Stat(*text); statErr == nil && !fi.IsDir() {
			t, err = os.ReadFile(*text)
			if err != nil {
				return err
			}
		} else {
			t = []byte(*text)
		}
	} else if t, err = loadSeq(*text); err != nil {
		return err
	}
	alpha := genasm.DNA
	p := []byte(*pattern)
	if *bytesAlpha {
		alpha = genasm.Bytes
	} else {
		p = []byte(strings.ToUpper(*pattern))
	}
	e, err := genasm.NewEngine(genasm.WithAlphabet(alpha))
	if err != nil {
		return err
	}
	// Compile once: the CLI searches one text, but compiled patterns are
	// the hot path when the same pattern scans many texts.
	cp, err := e.Compile(p, *k)
	if err != nil {
		return err
	}
	matches, err := cp.Search(ctx, t)
	if err != nil {
		return err
	}
	for _, m := range matches {
		fmt.Printf("pos %d\tdist %d\n", m.Pos, m.Distance)
	}
	fmt.Fprintf(os.Stderr, "%d matches\n", len(matches))
	return nil
}

func runMap(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("map", flag.ExitOnError)
	refPath := fs.String("ref", "", "reference FASTA (gzip ok)")
	readsPath := fs.String("reads", "", "reads FASTA or FASTQ (gzip ok; streamed, never loaded whole)")
	seedK := fs.Int("seed-k", 15, "seed length")
	errRate := fs.Float64("error-rate", 0.10, "expected sequencing error rate")
	samOut := fs.Bool("sam", false, "emit SAM instead of the terse TSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The reference must be whole for indexing; only its first record is
	// read. EncodeRecord folds ambiguous bases, so decoding its output
	// yields clean ACGT letters for the public API.
	refRec, err := firstRecord(*refPath)
	if err != nil {
		return err
	}
	ref := foldAmbiguous(refRec.Seq)

	e, err := genasm.DefaultEngine()
	if err != nil {
		return err
	}
	m, err := e.NewMapper(ref, genasm.MapperConfig{
		SeedParams: genasm.SeedParams{SeedK: *seedK},
		ErrorRate:  *errRate,
		RefName:    refRec.Name,
	})
	if err != nil {
		return err
	}

	// The reads flow record by record from the file through MapStream to
	// the output — O(1) read memory regardless of file size.
	qf, err := seqio.Open(*readsPath)
	if err != nil {
		return err
	}
	defer qf.Close()
	var readErr error
	reads := func(yield func(genasm.Read) bool) {
		for rec, err := range qf.Records() {
			if err != nil {
				readErr = err
				return
			}
			if !yield(genasm.Read{Name: rec.Name, Seq: foldAmbiguous(rec.Seq)}) {
				return
			}
		}
	}
	results := m.MapStream(ctx, reads)

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	if *samOut {
		if err := m.WriteSAMStream(out, results); err != nil {
			return err
		}
	} else {
		for res := range results {
			if res.Err != nil {
				return fmt.Errorf("read %d (%s): %w", res.Index, res.Mapping.Name, res.Err)
			}
			mp := res.Mapping
			if !mp.Mapped {
				fmt.Fprintf(out, "%s\tunmapped\n", mp.Name)
				continue
			}
			strand := "+"
			if mp.RevComp {
				strand = "-"
			}
			fmt.Fprintf(out, "%s\t%d\t%s\tNM:%d\t%s\n", mp.Name, mp.Pos, strand, mp.Distance, mp.ClassicCIGAR())
		}
	}
	if readErr != nil {
		return fmt.Errorf("%s: %w", *readsPath, readErr)
	}
	return out.Flush()
}
