package em

import (
	"testing"

	"factcheck/internal/factdb"
	"factcheck/internal/synth"
)

// TestReleaseWorkersIsTraceNeutral verifies that dropping and re-growing
// the cached worker chains — the idle-session trim used by the serving
// layer — never changes inference results: the chains are detached clones
// reseeded per task, so their lifecycle is invisible to the computation.
func TestReleaseWorkersIsTraceNeutral(t *testing.T) {
	corpus := synth.Generate(synth.Wikipedia.Scaled(0.1), 5)
	cfg := DefaultConfig()
	cfg.BurnIn, cfg.Samples, cfg.EMIters = 6, 10, 1

	run := func(churn bool) []float64 {
		e := NewEngine(corpus.DB, cfg, 9)
		state := factdb.NewState(corpus.DB.NumClaims)
		e.InferFull(state)
		if churn {
			e.AcquireWorkers(3)
			e.ReleaseWorkers()
			e.AcquireWorkers(2)
			e.ReleaseWorkers()
		}
		state.SetLabel(0, corpus.Truth[0])
		e.InferIncremental(state)
		out := make([]float64, corpus.DB.NumClaims)
		for c := range out {
			out[c] = state.P(c)
		}
		return out
	}

	a, b := run(false), run(true)
	for c := range a {
		if a[c] != b[c] {
			t.Fatalf("worker churn changed P(%d): %v vs %v", c, a[c], b[c])
		}
	}
}

func TestReleaseWorkersBounds(t *testing.T) {
	corpus := synth.Generate(synth.Wikipedia.Scaled(0.05), 6)
	e := NewEngine(corpus.DB, DefaultConfig(), 7)
	state := factdb.NewState(corpus.DB.NumClaims)
	e.InferFull(state)
	e.AcquireWorkers(4)
	e.ReleaseWorkers()
	if got := len(e.workerChains); got != 0 {
		t.Fatalf("ReleaseWorkers kept %d chains", got)
	}
	e.ReleaseWorkers() // nothing cached: a no-op
	if ws := e.AcquireWorkers(2); len(ws) != 2 {
		t.Fatalf("AcquireWorkers after release returned %d chains", len(ws))
	}
}
