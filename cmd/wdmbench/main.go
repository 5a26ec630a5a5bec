// Command wdmbench regenerates the reproduced paper's evaluation
// artifacts as measured tables: the Figs. 1–4 worked example, the
// Sec. III-C comparison against Chlamtac–Faragó–Zhang, the Theorem 3/4/5
// complexity claims, the Fig. 5/6 revisit scenario, the Observation size
// bounds and the adjacency-matrix erratum. See EXPERIMENTS.md for the
// recorded outputs.
//
// Usage:
//
//	wdmbench                       # run everything at full scale
//	wdmbench -experiment compare   # one experiment
//	wdmbench -scale 0.25 -reps 1   # quick pass
//	wdmbench -list
//	wdmbench -format csv           # tables as CSV
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lightpath/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wdmbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("wdmbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "experiment name or 'all'")
	scale := fs.Float64("scale", 1, "sweep size multiplier (0 < scale ≤ 1 shrinks runs)")
	reps := fs.Int("reps", 3, "timing repetitions per point (median kept)")
	seed := fs.Int64("seed", 1998, "instance generation seed")
	format := fs.String("format", "text", "table output format: text|csv")
	list := fs.Bool("list", false, "list experiment names and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, n := range bench.Names {
			fmt.Fprintln(w, n)
		}
		return nil
	}
	if *scale <= 0 {
		return fmt.Errorf("scale must be positive, got %v", *scale)
	}
	switch *format {
	case "text":
	case "csv":
		w = bench.CSVWriter(w)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	cfg := bench.Config{Seed: *seed, Scale: *scale, Reps: *reps}
	if *experiment == "all" {
		return bench.RunAll(w, cfg)
	}
	return bench.Run(*experiment, w, cfg)
}
