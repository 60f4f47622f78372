package em

import "factcheck/internal/gibbs"

// workers returns n what-if chains that adopted e's chain, the way a
// scoring round borrows them, worker i on the stream NewRNG(i).
func workers(e *Engine, n int) []*gibbs.Chain {
	ws := make([]*gibbs.Chain, n)
	for i := range ws {
		ws[i] = new(gibbs.Chain)
		ws[i].Adopt(e.Chain())
		ws[i].Reseed(int64(i))
	}
	return ws
}
