// Command quickstart demonstrates the core loop of the framework: build a
// probabilistic fact database, run the guided validation process with the
// hybrid strategy, and watch a high-precision knowledge base emerge from a
// fraction of the manual effort.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"factcheck/internal/core"
	"factcheck/internal/sim"
	"factcheck/internal/synth"
)

func main() {
	// A Wikipedia-hoaxes-shaped corpus at 30% of the published size.
	// Generate is deterministic per (profile, seed).
	corpus := synth.Generate(synth.Wikipedia.Scaled(0.3), 42)
	stats := corpus.DB.Stats()
	fmt.Printf("corpus: %s\n", stats)

	// The validation goal Δ: a knowledge base with 90% precision. The
	// ground truth is only used to simulate the human validator and to
	// report precision — exactly the paper's evaluation protocol (§8.1).
	goal := 0.9
	session := core.NewSession(corpus.DB, core.Options{
		Seed: 7,
		Goal: func(s *core.Session) bool {
			return s.Precision(corpus.Truth) >= goal
		},
	})
	fmt.Printf("automated model alone: precision %.3f\n\n", session.Precision(corpus.Truth))

	session.Observer = func(s *core.Session) {
		if s.Iterations()%5 == 0 {
			fmt.Printf("  after %3d validations: effort %5.1f%%  precision %.3f  hybrid z=%.2f\n",
				s.Iterations(), 100*s.Effort(), s.Precision(corpus.Truth), s.ZScore())
		}
	}

	user := &sim.Oracle{Truth: corpus.Truth}
	n := session.Run(user)

	fmt.Printf("\nreached %.0f%% precision after validating %d of %d claims (%.1f%% effort)\n",
		100*goal, n, corpus.DB.NumClaims, 100*float64(n)/float64(corpus.DB.NumClaims))

	// The grounding is the trusted fact set g : C -> {0,1}.
	g := session.Grounding()
	credible := 0
	for _, v := range g {
		if v {
			credible++
		}
	}
	fmt.Printf("trusted fact set: %d credible, %d non-credible\n",
		credible, len(g)-credible)
}
