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
//	wdmbench -experiment engine -engine-json BENCH_engine.json
//	wdmbench -experiment "" -goal-json BENCH_goal.json
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
	engineJSON := fs.String("engine-json", "",
		"write the engine benchmark as machine-readable JSON to this path (e.g. BENCH_engine.json)")
	obsJSON := fs.String("obs-json", "",
		"write the telemetry overhead benchmark as machine-readable JSON to this path (e.g. BENCH_obs.json)")
	churnJSON := fs.String("churn-json", "",
		"write the churn (delta vs full rebuild) benchmark as machine-readable JSON to this path (e.g. BENCH_churn.json)")
	goalJSON := fs.String("goal-json", "",
		"write the goal-directed search benchmark as machine-readable JSON to this path (e.g. BENCH_goal.json)")
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
	if *engineJSON != "" {
		report, err := bench.EngineReport(cfg)
		if err != nil {
			return fmt.Errorf("engine benchmark: %w", err)
		}
		if err := report.WriteJSON(*engineJSON); err != nil {
			return fmt.Errorf("write %s: %w", *engineJSON, err)
		}
		fmt.Fprintf(w, "engine benchmark written to %s (speedup %.1fx, hit rate %.3f, %.0f epochs/sec)\n",
			*engineJSON, report.Speedup, report.CacheHitRate, report.EpochsPerSec)
		if *experiment == "" {
			return nil
		}
	}
	if *obsJSON != "" {
		report, err := bench.ObsReport(cfg)
		if err != nil {
			return fmt.Errorf("obs benchmark: %w", err)
		}
		if err := report.WriteJSON(*obsJSON); err != nil {
			return fmt.Errorf("write %s: %w", *obsJSON, err)
		}
		fmt.Fprintf(w, "obs benchmark written to %s (tracer off %+.2f%%, recorder on %+.2f%%)\n",
			*obsJSON, report.TracerOffOverheadPct, report.RecorderOnOverheadPct)
		if *experiment == "" {
			return nil
		}
	}
	if *churnJSON != "" {
		report, err := bench.ChurnReport(cfg)
		if err != nil {
			return fmt.Errorf("churn benchmark: %w", err)
		}
		if err := report.WriteJSON(*churnJSON); err != nil {
			return fmt.Errorf("write %s: %w", *churnJSON, err)
		}
		for _, tier := range report.Tiers {
			fmt.Fprintf(w, "churn %s: delta %.1fx faster (mean %d ns vs %d ns, %d epochs)\n",
				tier.Name, tier.Speedup, tier.DeltaMeanNs, tier.FullMeanNs, tier.Epochs)
		}
		fmt.Fprintf(w, "churn benchmark written to %s\n", *churnJSON)
		if *experiment == "" {
			return nil
		}
	}
	if *goalJSON != "" {
		report, err := bench.GoalReport(cfg)
		if err != nil {
			return fmt.Errorf("goal benchmark: %w", err)
		}
		if err := report.WriteJSON(*goalJSON); err != nil {
			return fmt.Errorf("write %s: %w", *goalJSON, err)
		}
		for _, tier := range report.Tiers {
			fmt.Fprintf(w, "goal %s: settled reduction bidi %.2fx / astar %.2fx, speedup bidi %.2fx / astar %.2fx\n",
				tier.Tier, tier.BidiSettledReduction, tier.AStarSettledReduction, tier.BidiSpeedup, tier.AStarSpeedup)
		}
		fmt.Fprintf(w, "goal benchmark written to %s\n", *goalJSON)
		if *experiment == "" {
			return nil
		}
	}
	if *experiment == "all" {
		return bench.RunAll(w, cfg)
	}
	return bench.Run(*experiment, w, cfg)
}
