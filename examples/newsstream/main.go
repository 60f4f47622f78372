// Command newsstream demonstrates streaming fact checking (§7, Alg. 2): a
// news-shaped corpus arrives claim by claim in posting order; an online EM
// engine keeps the model parameters current with stochastic approximation,
// and periodic validation bursts (Alg. 1) clean the claims seen so far.
// Parameters flow in both directions between the two algorithms.
//
// Run with:
//
//	go run ./examples/newsstream
package main

import (
	"fmt"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/crf"
	"factcheck/internal/sim"
	"factcheck/internal/stream"
	"factcheck/internal/synth"
)

func main() {
	corpus := synth.Generate(synth.Snopes.Scaled(0.02), 19)
	fmt.Printf("snopes-shaped stream: %s\n", corpus.DB.Stats())
	n := corpus.DB.NumClaims

	// The streaming engine only needs the parameter dimensionality; the
	// arriving claims are featurised against the shared schema.
	model := crf.New(corpus.DB)
	streamEng := stream.New(model.Dim())

	validated := map[int]bool{}
	var updateTime time.Duration

	burstEvery := n / 5
	if burstEvery < 1 {
		burstEvery = 1
	}
	fmt.Printf("claims arrive in posting order; a validation burst runs every %d arrivals\n\n", burstEvery)

	for i, claim := range corpus.ClaimOrder {
		// Alg. 2 lines 1-9: featurise the arrival and update the model
		// with stochastic approximation.
		rows, signs := stream.RowsForClaim(model, claim, nil)
		start := time.Now()
		streamEng.ObserveClaim(rows, signs, nil)
		updateTime += time.Since(start)

		if (i+1)%burstEvery != 0 {
			continue
		}
		// Periodic Alg. 1 burst over the prefix seen so far, warm
		// started with the streaming parameters (Alg. 2 line 10).
		prefix := corpus.ClaimOrder[:i+1]
		sub, toOrig := synth.Subset(corpus, prefix)
		session := core.NewSession(sub.DB, core.Options{Seed: int64(i)})
		session.Engine.SetTheta(streamEng.Theta())
		// Earlier verdicts persist across bursts.
		origToNew := map[int]int{}
		for newID, orig := range toOrig {
			origToNew[orig] = newID
		}
		for orig := range validated {
			if newID, ok := origToNew[orig]; ok {
				session.State.SetLabel(newID, corpus.Truth[orig])
			}
		}
		user := &sim.Oracle{Truth: sub.Truth}
		for v := 0; v < burstEvery/3+1; v++ {
			if session.Step(user) {
				break
			}
		}
		newV := 0
		for _, v := range session.History() {
			orig := toOrig[v.Claim]
			if !validated[orig] {
				validated[orig] = true
				newV++
				// Validated claims flow back into the stream engine
				// with their verdicts (parameter exchange, line 7).
				rows, signs := stream.RowsForClaim(model, orig, nil)
				lbl := v.Verdict
				streamEng.ObserveClaim(rows, signs, &lbl)
			}
		}
		streamEng.SetTheta(session.Engine.Theta())
		prec := session.Precision(sub.Truth)
		fmt.Printf("after %3d arrivals: validated %2d new (%d total), prefix precision %.3f\n",
			i+1, newV, len(validated), prec)
	}

	fmt.Printf("\navg model update per arriving claim: %.2f ms (%d claims)\n",
		1000*updateTime.Seconds()/float64(n), n)
}
