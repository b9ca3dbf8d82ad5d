package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"genasm"
)

// runIndex dispatches the `genasm index` subcommands: offline reference
// index construction (`build`) and index-file introspection (`inspect`) —
// the CLI face of the persistent-index workflow (build once, then
// `genasm-serve -ref-index` or repeated mapping runs load it instantly).
func runIndex(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("index: want build or inspect (try `genasm index build -ref ref.fasta -out ref.gidx`)")
	}
	switch args[0] {
	case "build":
		return runIndexBuild(args[1:])
	case "inspect":
		return runIndexInspect(args[1:])
	}
	return fmt.Errorf("index: unknown subcommand %q (want build or inspect)", args[0])
}

func runIndexBuild(args []string) error {
	fs := flag.NewFlagSet("index build", flag.ExitOnError)
	refPath := fs.String("ref", "", "reference FASTA (gzip ok; first record is indexed)")
	out := fs.String("out", "", "output index file (e.g. ref.gidx)")
	seedK := fs.Int("seed-k", 15, "seed length (max 31)")
	minimizerW := fs.Int("minimizer-w", 0, "sample window minimizers over N k-mers (N > 0); 0 indexes every k-mer")
	refName := fs.String("ref-name", "", "reference name stored in the index (default: the FASTA record name)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *refPath == "" || *out == "" {
		return fmt.Errorf("index build: -ref and -out are required")
	}
	refRec, err := firstRecord(*refPath)
	if err != nil {
		return err
	}
	ref := foldAmbiguous(refRec.Seq)
	name := *refName
	if name == "" {
		name = refRec.Name
	}

	e, err := genasm.DefaultEngine()
	if err != nil {
		return err
	}
	start := time.Now()
	ri, err := e.BuildRefIndex(ref, genasm.RefIndexConfig{
		SeedParams: genasm.SeedParams{SeedK: *seedK, MinimizerW: *minimizerW},
		RefName:    name,
	})
	if err != nil {
		return err
	}
	buildTime := time.Since(start)
	if err := ri.WriteFile(*out); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	st := ri.Stats()
	fmt.Printf("wrote %s: %s index over %d bases (%s), k=%d, %d seeds, built in %v, %d bytes on disk\n",
		*out, st.Backend, st.RefLen, name, st.K, st.Seeds, buildTime.Round(time.Millisecond), fi.Size())
	return nil
}

func runIndexInspect(args []string) error {
	fs := flag.NewFlagSet("index inspect", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("index inspect: want exactly one index file argument")
	}
	ri, err := genasm.LoadRefIndex(fs.Arg(0))
	if err != nil {
		return err
	}
	defer ri.Close()
	st := ri.Stats()
	fmt.Printf("backend:      %s\n", st.Backend)
	fmt.Printf("ref name:     %s\n", ri.RefName())
	fmt.Printf("ref length:   %d bases\n", st.RefLen)
	fmt.Printf("ref digest:   %016x\n", st.RefDigest)
	fmt.Printf("seed length:  %d\n", st.K)
	if st.MinimizerW > 0 {
		fmt.Printf("minimizer w:  %d\n", st.MinimizerW)
	}
	fmt.Printf("seeds:        %d\n", st.Seeds)
	fmt.Printf("buckets:      %d\n", st.Buckets)
	fmt.Printf("file size:    %d bytes\n", st.FileBytes)
	fmt.Printf("memory:       %d bytes (%s)\n", st.Bytes, st.Source)
	fmt.Printf("load time:    %v\n", st.LoadTime.Round(time.Microsecond))
	return nil
}
