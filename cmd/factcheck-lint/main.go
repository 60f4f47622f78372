// Command factcheck-lint is the project's invariant multichecker: it
// runs the custom go/analysis-style suite (detrand, wallclock,
// errenvelope, lockdiscipline, then the whole-program unreached census —
// see internal/analysis) over the packages named on the command line
// and exits nonzero when any invariant is violated.
//
// Usage:
//
//	factcheck-lint [-checks detrand,wallclock] [packages...]
//
// Packages default to ./...; patterns are go list syntax. unreached
// judges reachability from every main and the public API, so it runs
// only when the pattern is the whole module (./...). Findings
// print as file:line:col: [analyzer] message. A finding is suppressed
// by an audited escape hatch on, or immediately above, the flagged
// line:
//
//	//lint:allow <analyzer> <reason>
//
// A directive without a reason is itself reported, so every
// suppression carries its justification into review.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"factcheck/internal/analysis"
)

func main() {
	checks := flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: factcheck-lint [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	all := analysis.All()
	if *list {
		for _, a := range all {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	enabled := all
	if *checks != "" {
		byName := make(map[string]*analysis.Analyzer, len(all))
		for _, a := range all {
			byName[a.Name] = a
		}
		enabled = nil
		for _, name := range strings.Split(*checks, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "factcheck-lint: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			enabled = append(enabled, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if len(patterns) != 1 || patterns[0] != "./..." {
		enabled = slices.DeleteFunc(enabled, func(a *analysis.Analyzer) bool { return a.Program })
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "factcheck-lint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "factcheck-lint: %v\n", err)
		os.Exit(2)
	}
	diags := analysis.Run(enabled, pkgs...)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
