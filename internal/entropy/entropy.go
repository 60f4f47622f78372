// Package entropy implements the linear approximation of Eq. 13 (§4.1):
// the database uncertainty as a sum of per-claim binary entropies. It
// drives the information-driven and source-driven guidance strategies
// and the early-termination indicators. The exact Eq. 12 entropy, the
// baseline Fig. 2 measures it against, is ising.Exact.
package entropy

import (
	"factcheck/internal/factdb"
	"factcheck/internal/stats"
)

// Approx returns the Eq. 13 approximation H_C(Q) ≈ Σ_c h(P(c)) over all
// claims. Labelled claims contribute zero (their probability is pinned to
// 0 or 1).
func Approx(state *factdb.State) float64 {
	h := 0.0
	for c := 0; c < state.Len(); c++ {
		h += stats.BinaryEntropy(state.P(c))
	}
	return h
}

// ApproxClaims returns the Eq. 13 approximation restricted to the given
// claims; used for component-local what-if evaluation.
func ApproxClaims(state *factdb.State, claims []int32) float64 {
	h := 0.0
	for _, c := range claims {
		h += stats.BinaryEntropy(state.P(int(c)))
	}
	return h
}
