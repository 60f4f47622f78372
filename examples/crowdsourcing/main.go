// Command crowdsourcing combines two of the paper's effort-reduction
// mechanisms: greedy submodular batch selection (§6.2) to cut user set-up
// costs, and crowd consensus (§8.9) to answer each batch. A batch of
// claims is selected for joint validation, a simulated FigureEight-style
// crowd answers every claim, the reliability-aware consensus of [33]
// aggregates the answers, and the consensus verdicts enter the validation
// process as user input. A final confirmation check (§5.2) hunts for
// consensus mistakes.
//
// Run with:
//
//	go run ./examples/crowdsourcing
package main

import (
	"fmt"
	"math"

	"factcheck/internal/core"
	"factcheck/internal/sim"
	"factcheck/internal/synth"
)

// crowdUser adapts a worker population to the core.User contract: each
// Validate fans the claim out to the crowd and returns the consensus.
type crowdUser struct {
	truth   []bool
	workers *sim.Population
	asked   int
	seconds float64
}

func (u *crowdUser) Validate(claim int) (bool, bool) {
	answers := make([][]int8, 1)
	answers[0] = make([]int8, len(u.workers.Workers))
	var maxSec float64
	for wi, w := range u.workers.Workers {
		v, sec := w.Answer(u.truth[claim])
		if sec > maxSec {
			maxSec = sec // workers answer in parallel; the batch waits for the slowest
		}
		if v {
			answers[0][wi] = 1
		}
	}
	labels, _ := sim.Consensus(answers, 20)
	u.asked++
	u.seconds += maxSec
	return labels[0], true
}

func main() {
	corpus := synth.Generate(synth.Snopes.Scaled(0.015), 23)
	fmt.Printf("corpus: %s\n\n", corpus.DB.Stats())

	crowd := &crowdUser{
		truth:   corpus.Truth,
		workers: sim.NewCrowdPopulation(7, 0.82, 60, 31),
	}

	const batchSize = 5
	session := core.NewSession(corpus.DB, core.Options{
		Seed:         29,
		BatchSize:    batchSize, // §6.2: one inference per batch of 5
		ConfirmEvery: 0.05,      // §5.2: check each 5% of validations
		Budget:       corpus.DB.NumClaims / 2,
	})

	session.Observer = func(s *core.Session) {
		fmt.Printf("batch %2d: effort %5.1f%%  precision %.3f\n",
			s.Iterations(), 100*s.Effort(), s.Precision(corpus.Truth))
	}
	session.Run(crowd)

	repairs := 0
	for _, v := range session.History() {
		if v.Repaired {
			repairs++
		}
	}
	fmt.Printf("\ncrowd answered %d prompts (%.0f worker-seconds of latency)\n",
		crowd.asked, crowd.seconds)
	fmt.Printf("confirmation checks re-elicited %d claims\n", repairs)
	fmt.Printf("final precision: %.3f with %.1f%% of claims validated\n",
		session.Precision(corpus.Truth), 100*session.Effort())
	fmt.Printf("cost saving from batching (alpha=2/3): %.0f%% of per-claim set-up time\n",
		100*(1-1/math.Pow(batchSize, 2.0/3.0)))
}
