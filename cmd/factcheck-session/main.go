// Command factcheck-session runs an interactive validation session on a
// synthetic corpus: the framework selects the most beneficial claim, the
// user answers y (credible), n (non-credible), s (skip) or q (quit), and
// the model's inference and grounding update live. With -auto the
// simulated ground-truth user answers instead, which makes the tool a
// demonstration of the full Alg. 1 loop.
//
// Usage:
//
//	factcheck-session -profile wiki -scale 0.2 -goal 0.9
//	factcheck-session -auto -profile snopes -scale 0.02
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"factcheck/internal/core"
	"factcheck/internal/factdb"
	"factcheck/internal/sim"
	"factcheck/internal/synth"
)

// consoleUser prompts on stdin. It also reports the model's current
// estimate, mirroring the paper's assumption that validators see the
// inferred credibility (§5.2).
type consoleUser struct {
	session *core.Session
	corpus  *synth.Corpus
	in      *bufio.Scanner
	out     io.Writer
	quit    bool
}

func (u *consoleUser) Validate(claim int) (bool, bool) {
	if u.quit {
		return false, false
	}
	db := u.corpus.DB
	fmt.Fprintf(u.out, "\nclaim #%d — model: P(credible) = %.2f\n", claim, u.session.State.P(claim))
	fmt.Fprintf(u.out, "  evidence: %d documents from %d sources\n",
		len(db.ClaimCliques(claim)), len(db.ClaimSources(claim)))
	sup, ref, cliques := 0, 0, db.Rows().Cliques
	for _, ci := range db.ClaimCliques(claim) {
		if cliques[ci].Stance == factdb.Support {
			sup++
		} else {
			ref++
		}
	}
	fmt.Fprintf(u.out, "  stances: %d support, %d refute\n", sup, ref)
	for {
		fmt.Fprint(u.out, "credible? [y/n/s(kip)/q(uit)]: ")
		if !u.in.Scan() {
			u.quit = true
			return false, false
		}
		switch strings.TrimSpace(strings.ToLower(u.in.Text())) {
		case "y", "yes":
			return true, true
		case "n", "no":
			return false, true
		case "s", "skip":
			return false, false
		case "q", "quit":
			u.quit = true
			return false, false
		}
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is main with its streams and exit status injectable; 2 is a bad
// invocation.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("factcheck-session", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		profile = fs.String("profile", "wiki", "corpus profile: wiki, health or snopes")
		scale   = fs.Float64("scale", 0.2, "corpus scale factor (> 0)")
		seed    = fs.Int64("seed", 42, "random seed")
		goal    = fs.Float64("goal", 0.9, "precision goal (with -auto)")
		auto    = fs.Bool("auto", false, "answer with the simulated ground-truth user")
		budget  = fs.Int("budget", 0, "effort budget (0 = all claims)")
		workers = fs.Int("workers", 0, "parallel inference/scoring workers (0 = GOMAXPROCS); results are identical across worker counts")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	prof, err := synth.ByName(*profile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if !(*scale > 0) { // also refuses NaN
		fmt.Fprintf(stderr, "factcheck-session: -scale must be positive, got %v\n", *scale)
		return 2
	}
	corpus, err := synth.GenerateChecked(prof.Scaled(*scale), *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "corpus: %s\n", corpus.DB.Stats())

	quit := false
	opts := core.Options{
		Seed:    *seed + 1,
		Budget:  *budget,
		Workers: *workers,
		Goal: func(s *core.Session) bool {
			if quit {
				return true
			}
			return *auto && s.Precision(corpus.Truth) >= *goal
		},
	}
	session := core.NewSession(corpus.DB, opts)
	fmt.Fprintf(stdout, "initial automated precision: %.3f\n", session.Precision(corpus.Truth))

	var user core.User
	if *auto {
		user = &sim.Oracle{Truth: corpus.Truth}
		session.Observer = func(s *core.Session) {
			fmt.Fprintf(stdout, "iteration %3d: effort %5.1f%%  precision %.3f\n",
				s.Iterations(), 100*s.Effort(), s.Precision(corpus.Truth))
		}
	} else {
		cu := &consoleUser{session: session, corpus: corpus, in: bufio.NewScanner(stdin), out: stdout}
		user = cu
		session.Observer = func(s *core.Session) {
			last := s.History()[len(s.History())-1]
			verdict := "non-credible"
			if last.Verdict {
				verdict = "credible"
			}
			truthStr := "correct"
			if last.Verdict != corpus.Truth[last.Claim] {
				truthStr = "WRONG (ground truth disagrees)"
			}
			fmt.Fprintf(stdout, "recorded: claim #%d = %s (%s). effort %.1f%%, precision %.3f\n",
				last.Claim, verdict, truthStr, 100*s.Effort(), s.Precision(corpus.Truth))
			quit = quit || cu.quit
		}
	}

	n := session.Run(user)
	fmt.Fprintf(stdout, "\nsession over: %d validations, %.1f%% effort, precision %.3f\n",
		n, 100*session.Effort(), session.Precision(corpus.Truth))
	return 0
}
