package experiments

import (
	"fmt"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/em"
	"factcheck/internal/entropy"
	"factcheck/internal/factdb"
	"factcheck/internal/ising"
	"factcheck/internal/sim"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Setting    string
	AvgSeconds float64
	Precision  float64
	Extra      string
}

// AblationResult holds one ablation study's rows.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

// Table renders an ablation study.
func (r AblationResult) Table() Table {
	t := Table{
		Title:  "Ablation — " + r.Name,
		Header: []string{"setting", "avg s/iter", "precision", "notes"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Setting, fmt.Sprintf("%.4f", row.AvgSeconds), f3(row.Precision), row.Extra})
	}
	return t
}

// ablationCorpus builds the standard ablation workload (wiki profile).
func ablationCorpus(cfg Config) *synth.Corpus {
	return synth.Generate(scaleFor(synth.Wikipedia, cfg.TargetClaims), cfg.Seed)
}

// RunAblationWarmStart compares iCRF's warm-started incremental inference
// (the paper's design) against cold re-inference from scratch at every
// iteration — the §3.2 motivation for view maintenance.
func RunAblationWarmStart(cfg Config) AblationResult {
	cfg = cfg.withDefaults()
	corpus := ablationCorpus(cfg)
	budget := corpus.DB.NumClaims / 2
	run := func(cold bool) AblationRow {
		s := cfg.session(corpus.DB, core.Options{Seed: cfg.Seed + 7, Budget: budget})
		user := &sim.Oracle{Truth: corpus.Truth}
		start := time.Now()
		iters := 0
		for !s.Done() {
			if cold {
				// Cold path: full re-inference instead of the warm chain.
				s.Engine.InferFull(s.State)
			}
			s.Step(user)
			iters++
		}
		elapsed := time.Since(start)
		name := "warm (iCRF)"
		if cold {
			name = "cold restart"
		}
		return AblationRow{
			Setting:    name,
			AvgSeconds: elapsed.Seconds() / float64(max(iters, 1)),
			Precision:  s.Precision(corpus.Truth),
		}
	}
	return AblationResult{
		Name: "warm-start vs cold-start inference",
		Rows: []AblationRow{run(false), run(true)},
	}
}

// RunAblationTrustCoupling removes the mutual-reinforcement channel (the
// trust feature) and measures the effect on guided validation.
func RunAblationTrustCoupling(cfg Config) AblationResult {
	cfg = cfg.withDefaults()
	corpus := ablationCorpus(cfg)
	budget := corpus.DB.NumClaims * 2 / 5
	run := func(disable bool) AblationRow {
		emCfg := em.DefaultConfig()
		emCfg.DisableTrust = disable
		s := cfg.session(corpus.DB, core.Options{Seed: cfg.Seed + 7, Budget: budget, EM: emCfg})
		start := time.Now()
		s.Run(&sim.Oracle{Truth: corpus.Truth})
		elapsed := time.Since(start)
		name := "with trust coupling"
		if disable {
			name = "without trust coupling"
		}
		return AblationRow{
			Setting:    name,
			AvgSeconds: elapsed.Seconds() / float64(max(s.Iterations(), 1)),
			Precision:  s.Precision(corpus.Truth),
		}
	}
	return AblationResult{
		Name: "trust coupling (mutual reinforcement) on/off",
		Rows: []AblationRow{run(false), run(true)},
	}
}

// RunAblationEntropy compares the exact (Eq. 12) and approximate (Eq. 13)
// uncertainty measures: computation time and agreement (Pearson) over a
// sequence of validation states.
func RunAblationEntropy(cfg Config) AblationResult {
	cfg = cfg.withDefaults()
	corpus := ablationCorpus(cfg)
	s := cfg.session(corpus.DB, core.Options{Seed: cfg.Seed + 7, Budget: corpus.DB.NumClaims / 2})
	var exactVals, approxVals []float64
	var exactTime, approxTime time.Duration
	s.Observer = func(sess *core.Session) {
		t0 := time.Now()
		h, _ := ising.Exact(sess.Engine.Model(), sess.State)
		exactTime += time.Since(t0)
		exactVals = append(exactVals, h)
		t1 := time.Now()
		a := entropy.Approx(sess.State)
		approxTime += time.Since(t1)
		approxVals = append(approxVals, a)
	}
	s.Run(&sim.Oracle{Truth: corpus.Truth})
	n := max(len(exactVals), 1)
	corr := stats.Pearson(exactVals, approxVals)
	return AblationResult{
		Name: "exact (Eq. 12) vs approximate (Eq. 13) entropy",
		Rows: []AblationRow{
			{Setting: "exact/Ising", AvgSeconds: exactTime.Seconds() / float64(n), Precision: s.Precision(corpus.Truth), Extra: fmt.Sprintf("corr=%.3f", corr)},
			{Setting: "approx/linear", AvgSeconds: approxTime.Seconds() / float64(n), Precision: s.Precision(corpus.Truth), Extra: fmt.Sprintf("corr=%.3f", corr)},
		},
	}
}

// RunAblationCandidatePool sweeps the what-if candidate pool size,
// trading selection time against guidance quality.
func RunAblationCandidatePool(cfg Config) AblationResult {
	cfg = cfg.withDefaults()
	corpus := ablationCorpus(cfg)
	res := AblationResult{Name: "candidate pool size"}
	for _, pool := range []int{4, 16, 64} {
		s := cfg.session(corpus.DB, core.Options{
			Seed:          cfg.Seed + 7,
			CandidatePool: pool,
			Goal: func(sess *core.Session) bool {
				return sess.Precision(corpus.Truth) >= 0.9
			},
		})
		start := time.Now()
		n := s.Run(&sim.Oracle{Truth: corpus.Truth})
		elapsed := time.Since(start)
		res.Rows = append(res.Rows, AblationRow{
			Setting:    fmt.Sprintf("pool=%d", pool),
			AvgSeconds: elapsed.Seconds() / float64(max(s.Iterations(), 1)),
			Precision:  s.Precision(corpus.Truth),
			Extra:      fmt.Sprintf("effort@0.9=%s", pct(float64(n)/float64(corpus.DB.NumClaims))),
		})
	}
	return res
}

// RunAblationBatchGreedy compares the greedy submodular batch (§6.2)
// against a random batch of the same size at equal effort.
func RunAblationBatchGreedy(cfg Config) AblationResult {
	cfg = cfg.withDefaults()
	corpus := ablationCorpus(cfg)
	budget := corpus.DB.NumClaims / 2
	const k = 5
	greedy := func() AblationRow {
		s := cfg.session(corpus.DB, core.Options{Seed: cfg.Seed + 7, Budget: budget, BatchSize: k})
		start := time.Now()
		s.Run(&sim.Oracle{Truth: corpus.Truth})
		return AblationRow{
			Setting:    "greedy submodular batch",
			AvgSeconds: time.Since(start).Seconds() / float64(max(s.Iterations(), 1)),
			Precision:  s.Precision(corpus.Truth),
		}
	}
	random := func() AblationRow {
		// Random batches: label k random claims per iteration.
		state := factdb.NewState(corpus.DB.NumClaims)
		engine := em.NewEngine(corpus.DB, em.DefaultConfig(), cfg.Seed+7)
		engine.InferFull(state)
		rng := stats.NewRNG(cfg.Seed + 13)
		start := time.Now()
		iters := 0
		for state.NumLabeled() < budget {
			unl := state.Unlabeled()
			rng.Shuffle(len(unl), func(i, j int) { unl[i], unl[j] = unl[j], unl[i] })
			take := k
			if take > len(unl) {
				take = len(unl)
			}
			for _, c := range unl[:take] {
				state.SetLabel(c, corpus.Truth[c])
			}
			engine.InferIncremental(state)
			iters++
		}
		g := engine.Grounding(state)
		return AblationRow{
			Setting:    "random batch",
			AvgSeconds: time.Since(start).Seconds() / float64(max(iters, 1)),
			Precision:  g.Precision(corpus.Truth),
		}
	}
	return AblationResult{
		Name: "greedy vs random batch selection (k=5)",
		Rows: []AblationRow{greedy(), random()},
	}
}
