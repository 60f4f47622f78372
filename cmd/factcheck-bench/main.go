// Command factcheck-bench regenerates the paper's tables and figures
// (§8) from the reproduction harness. Each experiment prints an aligned
// text table with the same rows/series the paper reports.
//
// Usage:
//
//	factcheck-bench -exp fig6 -claims 150 -runs 3
//	factcheck-bench -exp all
//	factcheck-bench -list
//
// -list prints the experiment ids, which experiments.Experiments lists:
// the figures and tables of §8, §8.8's update time (stream) and the
// ablations (ab-*). The -claims flag scales every dataset to roughly
// that many claims (DESIGN.md §5); -claims 0 runs the full published
// sizes (slow: snopes alone has 4856 claims). A configuration no
// experiment can honour — a negative size, an unknown dataset — exits 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"factcheck/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id, or 'all'")
		claims   = flag.Int("claims", 90, "scale each dataset to ~this many claims (0 = full published sizes)")
		seed     = flag.Int64("seed", 1, "random seed")
		runs     = flag.Int("runs", 1, "repetitions where the paper averages")
		workers  = flag.Int("workers", 0, "parallel workers for what-if scoring and the sharded E-step (0 = GOMAXPROCS); results are identical across worker counts")
		pool     = flag.Int("pool", 16, "candidate pool for what-if scoring")
		datasets = flag.String("datasets", "", "comma-separated subset of wiki,health,snopes")
		list     = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Desc)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "missing -exp; use -list to see available experiments")
		os.Exit(2)
	}

	cfg := experiments.Config{
		TargetClaims:  *claims,
		Seed:          *seed,
		Runs:          *runs,
		Workers:       *workers,
		CandidatePool: *pool,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *claims == 0 {
		cfg.TargetClaims = 1 << 30 // no shrinking
	}

	var toRun []experiments.Experiment
	for _, e := range experiments.Experiments() {
		if *exp == "all" || *exp == e.ID {
			toRun = append(toRun, e)
		}
	}
	if len(toRun) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
	for _, e := range toRun {
		start := time.Now()
		fmt.Println(e.Run(cfg))
		fmt.Printf("[%s finished in %.1fs]\n\n", e.ID, time.Since(start).Seconds())
	}
}
