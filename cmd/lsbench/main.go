// Command lsbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	lsbench [flags] <experiment>...
//	lsbench [flags] all
//
// lsbench -h lists every experiment id. By default runs at reduced scale
// (8k rows, 30 trials); -full runs each dataset at its paper size with 100
// trials.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
)

func main() {
	var (
		rows    = flag.Int("rows", 8000, "dataset rows (0 = each dataset's paper size)")
		trials  = flag.Int("trials", 0, "trials per distribution (0 = default 30)")
		seed    = flag.Uint64("seed", 1, "root random seed")
		dataset = flag.String("dataset", "", "restrict to one dataset (sports|neighbors)")
		fracs   = flag.String("fracs", "", "comma-separated sample fractions (default 0.01,0.02)")
		csvOut  = flag.String("csv", "", "also write results as CSV to this file (one block per experiment)")
		full    = flag.Bool("full", false, "paper scale: each dataset at its paper size (overrides -rows) and 100 trials")
		para    = flag.Int("p", 0, "concurrent trials per distribution (0 = all cores, 1 = sequential); results are identical at any value")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lsbench [flags] <experiment>...|all\n")
		fmt.Fprintf(os.Stderr, "experiments: %s\n", strings.Join(experiment.IDs(), ", "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *rows < 0 {
		fatalf("bad -rows %d", *rows)
	}
	opts := experiment.Options{
		Rows:        *rows,
		Trials:      *trials,
		Seed:        *seed,
		Dataset:     *dataset,
		Parallelism: *para,
	}
	if *full {
		opts.Rows = 0
		if opts.Trials == 0 {
			opts.Trials = 100
		}
	}
	if *fracs != "" {
		for _, tok := range strings.Split(*fracs, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil || f <= 0 || f > 1 {
				fatalf("bad -fracs entry %q", tok)
			}
			opts.SampleFracs = append(opts.SampleFracs, f)
		}
	}

	ids := flag.Args()
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiment.IDs()
	}

	var csvFile *os.File
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatalf("creating %s: %v", *csvOut, err)
		}
		defer f.Close()
		csvFile = f
	}

	for _, id := range ids {
		t0 := time.Now()
		rep, err := experiment.Run(id, opts)
		if err != nil {
			fatalf("%s: %v", id, err)
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf("elapsed %v", time.Since(t0).Round(time.Millisecond)))
		if err := rep.WriteText(os.Stdout); err != nil {
			fatalf("writing %s: %v", id, err)
		}
		if csvFile != nil {
			fmt.Fprintf(csvFile, "# %s: %s\n", rep.ID, rep.Title)
			if err := rep.WriteCSV(csvFile); err != nil {
				fatalf("writing CSV for %s: %v", id, err)
			}
			fmt.Fprintln(csvFile)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lsbench: "+format+"\n", args...)
	os.Exit(1)
}
