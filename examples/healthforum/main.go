// Command healthforum mirrors the paper's healthcare scenario (§8.1): a
// forum corpus of drug side-effect claims where misinformation is costly.
// It compares guided validation against the random baseline and stops
// early once the §6.1 convergence indicators fire, instead of exhausting
// the effort budget.
//
// Run with:
//
//	go run ./examples/healthforum
package main

import (
	"fmt"

	"factcheck/internal/core"
	"factcheck/internal/guidance"
	"factcheck/internal/sim"
	"factcheck/internal/synth"
	"factcheck/internal/termination"
)

func main() {
	corpus := synth.Generate(synth.Health.Scaled(0.15), 11)
	fmt.Printf("healthboards-shaped corpus: %s\n\n", corpus.DB.Stats())

	for _, strat := range []guidance.Strategy{
		guidance.Random{},
		&guidance.Hybrid{},
	} {
		effort, prec, stopped := runWithEarlyStop(corpus, strat)
		how := "budget exhausted"
		if stopped {
			how = "early termination (URR+CNG converged)"
		}
		fmt.Printf("%-12s effort %5.1f%%  precision %.3f  [%s]\n",
			strat.Name(), 100*effort, prec, how)
	}
}

// runWithEarlyStop runs a session that stops when the uncertainty
// reduction rate and the amount-of-changes indicator both report
// convergence (§6.1).
func runWithEarlyStop(corpus *synth.Corpus, strat guidance.Strategy) (effort, precision float64, stopped bool) {
	tracker := termination.NewTracker(5)
	thresholds := termination.Thresholds{
		URRBelow:    0.05,
		CNGBelow:    0.05,
		Consecutive: 5,
	}
	session := core.NewSession(corpus.DB, core.Options{
		Strategy: strat,
		Seed:     13,
		Goal: func(s *core.Session) bool {
			// Give the model a minimum of evidence before trusting the
			// convergence indicators.
			return s.Effort() > 0.15 && tracker.ShouldStop(thresholds)
		},
	})
	session.Observer = tracker.ObserveSession
	session.Run(&sim.Oracle{Truth: corpus.Truth})
	return session.Effort(), session.Precision(corpus.Truth),
		tracker.ShouldStop(thresholds)
}
