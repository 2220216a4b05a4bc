// Command antbench regenerates the reproduction experiment tables E1–E8,
// AB1–AB4 and S1 (see DESIGN.md §4).
//
// Usage:
//
//	antbench [-run E1,E5] [-quick] [-seed 42] [-csv] [-list] [-baseline BENCH_baseline.json]
//	antbench [-snapshot BENCH_label.json] [-parent BENCH_baseline.json] [-compare BENCH_baseline.json] [-tolerance 0.15]
//	antbench [-sentinel DIR] [-k 3] [-warmup 2] [-floor 0.05]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "antbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("antbench", flag.ContinueOnError)
	var (
		runIDs    = fs.String("run", "", "comma-separated experiment ids (default: all)")
		quick     = fs.Bool("quick", false, "smaller sweeps and trial counts")
		seed      = fs.Uint64("seed", 42, "root random seed")
		csv       = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		list      = fs.Bool("list", false, "list experiments and exit")
		workers   = fs.Int("workers", 0, "simulation worker bound (0 = GOMAXPROCS)")
		outDir    = fs.String("out", "", "also write one CSV file per table into this directory")
		baseline  = fs.String("baseline", "", "measure the simulation kernels and write a root JSON perf snapshot (no parent) to this path, then exit")
		snapshot  = fs.String("snapshot", "", "measure the simulation kernels and write a JSON perf snapshot linked to -parent, then exit")
		parent    = fs.String("parent", "BENCH_baseline.json", "parent snapshot name recorded in a -snapshot file")
		compare   = fs.String("compare", "", "measure the simulation kernels and gate against the reference snapshot at this path, then exit")
		tolerance = fs.Float64("tolerance", 0.15, "allowed fractional regression on the gated kernels for -compare")
		sentinel  = fs.String("sentinel", "", "walk the parent-linked BENCH_*.json series in this directory through the control-chart detector and fail on the first upper-limit breach, then exit")
		kSigma    = fs.Float64("k", 3, "control-limit width in sigmas for -sentinel")
		warmup    = fs.Int("warmup", 2, "snapshots absorbed per kernel before -sentinel starts classifying")
		floor     = fs.Float64("floor", 0.05, "minimum log-space sigma for -sentinel (0.05 ≈ a ±5% noise floor)")
	)
	cliutil.SetUsage(fs, "Regenerates the reproduction tables E1–E8, AB1–AB4 and S1–S3 (-quick, -csv, -out DIR); -baseline/-snapshot write kernel perf snapshots (the BENCH_*.json series), -compare gates against one, -sentinel control-charts the whole series",
		"antbench -quick",
		"antbench -run E1,E5 -csv",
		"antbench -snapshot BENCH_candidate.json -parent BENCH_runlength.json",
		"antbench -sentinel .")
	if ok, err := cliutil.Parse(fs, args); !ok {
		return err // nil after -h: usage already printed, clean exit
	}

	if *sentinel != "" {
		return runSentinel(*sentinel, *kSigma, *warmup, *floor, out)
	}

	if *baseline != "" || *snapshot != "" || *compare != "" {
		lineage := ""
		path := *baseline
		if *snapshot != "" {
			lineage, path = *parent, *snapshot
		}
		b, err := measureBaseline(lineage)
		if err != nil {
			return err
		}
		if path != "" {
			if err := writeBaseline(b, path, out); err != nil {
				return err
			}
		}
		if *compare != "" {
			return compareBaseline(b, *compare, *tolerance, out)
		}
		return nil
	}

	if *list {
		for _, e := range experiment.Registry() {
			fmt.Fprintf(out, "%-4s %s  [%s]\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}

	var selected []experiment.Experiment
	if *runIDs == "" {
		selected = experiment.Registry()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, err := experiment.Lookup(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("create output directory: %w", err)
		}
	}
	cfg := experiment.Config{Seed: *seed, Quick: *quick, Workers: *workers}
	for _, e := range selected {
		start := time.Now()
		fmt.Fprintf(out, "# %s — %s (%s)\n", e.ID, e.Title, e.Claim)
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for i, tb := range tables {
			if *csv {
				fmt.Fprintf(out, "# %s\n%s", tb.Title, tb.CSV())
			} else {
				fmt.Fprintln(out, tb.Render())
			}
			if *outDir != "" {
				name := fmt.Sprintf("%s_%d.csv", strings.ToLower(e.ID), i)
				path := filepath.Join(*outDir, name)
				if err := os.WriteFile(path, []byte(tb.CSV()), 0o644); err != nil {
					return fmt.Errorf("write %s: %w", path, err)
				}
			}
		}
		fmt.Fprintf(out, "# %s completed in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
