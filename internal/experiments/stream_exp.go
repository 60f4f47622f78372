package experiments

import (
	"fmt"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/crf"
	"factcheck/internal/guidance"
	"factcheck/internal/sim"
	"factcheck/internal/stats"
	"factcheck/internal/stream"
	"factcheck/internal/synth"
)

// StreamTimeRow is one dataset's average model update time (§8.8).
type StreamTimeRow struct {
	Dataset    string
	AvgSeconds float64
	Claims     int
}

// StreamTimeResult holds the §8.8 update-time measurements (the paper
// reports 0.34 s / 0.61 s / 1.22 s for wiki / health / snopes on the
// authors' hardware at full scale).
type StreamTimeResult struct {
	Rows []StreamTimeRow
}

// RunStreamTime measures the per-claim model update time of Alg. 2 by
// replaying each corpus in posting order.
func RunStreamTime(cfg Config) StreamTimeResult {
	cfg = cfg.withDefaults()
	var res StreamTimeResult
	for _, prof := range cfg.profiles() {
		corpus := synth.Generate(prof, cfg.Seed)
		m := crf.New(corpus.DB)
		eng := stream.New(m.Dim())
		start := time.Now()
		for _, c := range corpus.ClaimOrder {
			rows, signs := stream.RowsForClaim(m, c, nil)
			eng.ObserveClaim(rows, signs, nil)
		}
		elapsed := time.Since(start)
		res.Rows = append(res.Rows, StreamTimeRow{
			Dataset:    datasetName(prof),
			AvgSeconds: elapsed.Seconds() / float64(len(corpus.ClaimOrder)),
			Claims:     len(corpus.ClaimOrder),
		})
	}
	return res
}

// Table renders the update times.
func (r StreamTimeResult) Table() Table {
	t := Table{
		Title:  "§8.8 — streaming model update time per arriving claim",
		Header: []string{"dataset", "claims", "avg update (s)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Dataset, fmt.Sprintf("%d", row.Claims), fmt.Sprintf("%.4f", row.AvgSeconds)})
	}
	return t
}

// Table2Row is one (dataset, period) cell of Table 2.
type Table2Row struct {
	Dataset string
	Period  float64 // validation period as a fraction of claims
	TauB    float64 // Kendall's τ_b between streaming and offline sequences
}

// Table2Result holds the validation-sequence preservation study (§8.8).
type Table2Result struct {
	Rows []Table2Row
}

// RunTable2 reproduces Table 2: claims arrive in posting order; after
// every `period` fraction of arrivals the validation process runs on the
// claims seen so far (hybrid strategy, parameters provided by the
// streaming engine). The resulting validation sequence is compared to the
// offline sequence (all claims available from the start) with Kendall's
// τ_b. Longer periods give the streaming run a view closer to the offline
// one, so τ_b should grow with the period; one run at the golden's scale
// (testdata/tables.txt) is not monotone, and stating the trend with
// intervals is ROADMAP item 19(b).
func RunTable2(cfg Config) Table2Result {
	cfg = cfg.withDefaults()
	var res Table2Result
	periods := []float64{0.05, 0.10, 0.20, 0.30}
	for _, prof := range cfg.profiles() {
		corpus := synth.Generate(prof, cfg.Seed)
		for _, period := range periods {
			streaming := streamingValidationSequence(corpus, cfg, period)
			// The offline run validates the same number of claims, so
			// the rank comparison is over comparable sets (otherwise the
			// missing-item ties of the shorter sequence dominate τ_b).
			frac := float64(len(streaming)) / float64(corpus.DB.NumClaims)
			offline := validationSequence(corpus, cfg, nil, frac)
			tau := stats.RankSequenceTau(streaming, offline)
			res.Rows = append(res.Rows, Table2Row{
				Dataset: datasetName(prof), Period: period, TauB: tau,
			})
		}
	}
	return res
}

// validationSequence runs the hybrid validation process over the full
// corpus and records the order in which claims are validated. With
// initTheta non-nil the engine starts from those parameters. The fraction
// argument bounds the number of validations (1.0 = all).
func validationSequence(corpus *synth.Corpus, cfg Config, initTheta []float64, fraction float64) []int {
	s := cfg.session(corpus.DB, core.Options{
		// The sequence comparison needs a deterministic-ish selector:
		// the hybrid roulette and the Gibbs-sampled what-if gains would
		// dominate Kendall's τ_b with selection noise, measuring seed
		// luck instead of streaming effects; uncertainty sampling ranks
		// by the (far less noisy) marginals.
		Strategy: guidance.Uncertainty{},
		Seed:     cfg.Seed + 7,
		Budget:   int(fraction * float64(corpus.DB.NumClaims)),
	})
	if initTheta != nil {
		s.Engine.SetTheta(initTheta)
	}
	s.Run(&sim.Oracle{Truth: corpus.Truth})
	var seq []int
	for _, v := range s.History() {
		seq = append(seq, v.Claim)
	}
	return seq
}

// streamingValidationSequence interleaves Alg. 2 with Alg. 1: claims
// arrive in posting order and feed the streaming engine; after each
// period of arrivals, a validation burst runs on the prefix corpus with
// the streaming engine's parameters, and the validated claims (with
// verdicts) flow back into the streaming engine. The returned sequence
// uses original claim ids.
func streamingValidationSequence(corpus *synth.Corpus, cfg Config, period float64) []int {
	n := corpus.DB.NumClaims
	step := int(period * float64(n))
	if step < 1 {
		step = 1
	}
	fullModel := crf.New(corpus.DB)
	streamEng := stream.New(fullModel.Dim())
	validated := map[int]bool{} // original ids already validated
	var seq []int
	for arrived := step; arrived <= n; arrived += step {
		// New arrivals since the last burst feed the stream engine.
		for _, c := range corpus.ClaimOrder[arrived-step : arrived] {
			rows, signs := stream.RowsForClaim(fullModel, c, nil)
			streamEng.ObserveClaim(rows, signs, nil)
		}
		// Validation burst on the prefix corpus: validate the same
		// fraction of the available claims as the offline run would.
		prefix := corpus.ClaimOrder[:arrived]
		sub, toOrig := synth.Subset(corpus, prefix)
		s := cfg.session(sub.DB, core.Options{Strategy: guidance.Uncertainty{}, Seed: cfg.Seed + 7})
		s.Engine.SetTheta(streamEng.Theta())
		// Pre-apply earlier validations (their labels persist).
		origToNew := make(map[int]int, len(toOrig))
		for newID, orig := range toOrig {
			origToNew[orig] = newID
		}
		for orig := range validated {
			if newID, ok := origToNew[orig]; ok {
				s.State.SetLabel(newID, corpus.Truth[orig])
			}
		}
		if len(validated) > 0 {
			s.Engine.InferIncremental(s.State)
		}
		// Validate half of each arrival batch so the streaming and
		// offline processes cover overlapping claim sets (the τ_b
		// comparison needs a substantial intersection).
		burst := step / 2
		if burst < 1 {
			burst = 1
		}
		user := &sim.Oracle{Truth: sub.Truth}
		for i := 0; i < burst; i++ {
			if s.Step(user) {
				break
			}
		}
		// Record new validations and feed them back to the stream.
		for _, v := range s.History() {
			orig := toOrig[v.Claim]
			if validated[orig] {
				continue
			}
			validated[orig] = true
			seq = append(seq, orig)
			rows, signs := stream.RowsForClaim(fullModel, orig, nil)
			lbl := v.Verdict
			streamEng.ObserveClaim(rows, signs, &lbl)
		}
		// Alg. 1 parameters flow back to Alg. 2 (line 7).
		streamEng.SetTheta(s.Engine.Theta())
	}
	return seq
}

// Table renders Table 2.
func (r Table2Result) Table() Table {
	t := Table{
		Title:  "Table 2 — preservation of validation sequence (Kendall's τ_b)",
		Header: []string{"dataset", "5%", "10%", "20%", "30%"},
	}
	byDS := map[string][]string{}
	for _, row := range r.Rows {
		byDS[row.Dataset] = append(byDS[row.Dataset], f2(row.TauB))
	}
	for _, ds := range []string{"wiki", "health", "snopes"} {
		if cells, ok := byDS[ds]; ok {
			t.Rows = append(t.Rows, append([]string{ds}, cells...))
		}
	}
	return t
}

// Table3Row is one (dataset, population) row of Table 3.
type Table3Row struct {
	Dataset    string
	Population string // "expert" or "crowd"
	AvgSeconds float64
	Accuracy   float64
}

// Table3Result holds the real-world deployment simulation (§8.9).
type Table3Result struct {
	Rows []Table3Row
}

// RunTable3 reproduces Table 3: 50 randomly selected claims per dataset
// are validated by a population of 3 experts and by a crowd with
// reliability-aware consensus. Expert/crowd time scales follow the
// published per-dataset medians (wiki 268/186 s, health 1579/561 s,
// snopes 559/336 s); the reproduced quantity is the trade-off — experts
// more accurate but slower.
func RunTable3(cfg Config) Table3Result {
	cfg = cfg.withDefaults()
	var res Table3Result
	timeScales := map[string][2]float64{
		"wiki":   {268, 186},
		"health": {1579, 561},
		"snopes": {559, 336},
	}
	for _, prof := range cfg.profiles() {
		corpus := synth.Generate(prof, cfg.Seed)
		rng := stats.NewRNG(cfg.Seed + 41)
		n := 50
		if n > corpus.DB.NumClaims {
			n = corpus.DB.NumClaims
		}
		perm := rng.Perm(corpus.DB.NumClaims)[:n]
		truth := make([]bool, n)
		for i, c := range perm {
			truth[i] = corpus.Truth[c]
		}
		ds := datasetName(prof)
		scale := timeScales[ds]
		// Experts answer alone (mean individual accuracy, the §8.9
		// protocol); the crowd's 3 votes per claim are aggregated by the
		// reliability-aware consensus.
		experts := sim.NewExpertPopulation(3, 0.965, scale[0], cfg.Seed+43)
		crowd := sim.NewCrowdPopulation(3, 0.8, scale[1], cfg.Seed+47)
		eRes := experts.RunTasksIndividual(truth)
		cRes := crowd.RunTasks(truth)
		res.Rows = append(res.Rows,
			Table3Row{Dataset: ds, Population: "expert", AvgSeconds: eRes.MeanSeconds, Accuracy: eRes.Accuracy},
			Table3Row{Dataset: ds, Population: "crowd", AvgSeconds: cRes.MeanSeconds, Accuracy: cRes.Accuracy},
		)
	}
	return res
}

// Table renders Table 3.
func (r Table3Result) Table() Table {
	t := Table{
		Title:  "Table 3 — experts vs crowd workers (50 claims/dataset)",
		Header: []string{"dataset", "exp.time(s)", "cro.time(s)", "exp.acc", "cro.acc"},
	}
	type pair struct {
		eT, cT, eA, cA float64
	}
	byDS := map[string]*pair{}
	for _, row := range r.Rows {
		p := byDS[row.Dataset]
		if p == nil {
			p = &pair{}
			byDS[row.Dataset] = p
		}
		if row.Population == "expert" {
			p.eT, p.eA = row.AvgSeconds, row.Accuracy
		} else {
			p.cT, p.cA = row.AvgSeconds, row.Accuracy
		}
	}
	for _, ds := range []string{"wiki", "health", "snopes"} {
		if p, ok := byDS[ds]; ok {
			t.Rows = append(t.Rows, []string{
				ds, fmt.Sprintf("%.0f", p.eT), fmt.Sprintf("%.0f", p.cT), f2(p.eA), f2(p.cA),
			})
		}
	}
	return t
}
