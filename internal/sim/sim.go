// Package sim provides the user simulators of §8: the ground-truth oracle
// (§8.1 "we use the ground truth of the datasets to simulate user
// input"), the erroneous user of §8.5 (mistakes with probability p), the
// skipping user of §8.5 (skips with probability pm), and the expert/crowd
// populations with consensus aggregation of §8.9.
package sim

import (
	"factcheck/internal/stats"
)

// Oracle answers every claim with its ground truth.
type Oracle struct {
	Truth []bool
}

// Validate implements the core.User contract.
func (o *Oracle) Validate(c int) (bool, bool) { return o.Truth[c], true }

// Erroneous answers with the ground truth flipped with probability P —
// the mistake model of §8.5. Every elicitation re-rolls, so a repair
// prompt (confirmation check) can correct an earlier mistake or introduce
// a new one. The latest verdict per claim is tracked so experiments can
// count surviving mistakes.
type Erroneous struct {
	Truth []bool
	P     float64

	rng  *stats.RNG
	last map[int]bool // latest verdict per claim
}

// NewErroneous builds the erroneous user with its own random stream.
func NewErroneous(truth []bool, p float64, seed int64) *Erroneous {
	return &Erroneous{Truth: truth, P: p, rng: stats.NewRNG(seed), last: make(map[int]bool)}
}

// Validate implements the core.User contract.
func (e *Erroneous) Validate(c int) (bool, bool) {
	v := e.Truth[c]
	if e.rng.Bernoulli(e.P) {
		v = !v
	}
	e.last[c] = v
	return v, true
}

// Skipper wraps another user and skips each first-time claim with
// probability Pm (§8.5, missing user input). Repeated prompts for the
// same claim (the second-best fallback or a repair) are never skipped, so
// the validation process always makes progress.
type Skipper struct {
	Inner interface {
		Validate(int) (bool, bool)
	}
	Pm float64

	rng     *stats.RNG
	skipped map[int]bool
}

// NewSkipper builds a skipping wrapper with its own random stream.
func NewSkipper(inner interface {
	Validate(int) (bool, bool)
}, pm float64, seed int64) *Skipper {
	return &Skipper{Inner: inner, Pm: pm, rng: stats.NewRNG(seed), skipped: make(map[int]bool)}
}

// Validate implements the core.User contract.
func (s *Skipper) Validate(c int) (bool, bool) {
	if !s.skipped[c] && s.rng.Bernoulli(s.Pm) {
		s.skipped[c] = true
		return false, false
	}
	return s.Inner.Validate(c)
}
