package experiments

import (
	"fmt"

	"factcheck/internal/core"
	"factcheck/internal/entropy"
	"factcheck/internal/guidance"
	"factcheck/internal/sim"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// runTrace runs a validation session under the named strategy to the
// given precision target (or exhaustion when stopAt <= 0) and returns
// the precision-vs-effort curve. Effort counts every elicitation in
// History (so repairs count, as in Fig. 7). The returned session allows
// further inspection.
func runTrace(corpus *synth.Corpus, strategy string, user core.User,
	cfg Config, seed int64, stopAt float64, confirmEvery float64) ([]CurvePoint, *core.Session) {

	strat, err := guidance.ByName(strategy)
	if err != nil {
		panic(err) // Config.Validate refuses unknown names
	}
	opts := core.Options{Strategy: strat, Seed: seed, ConfirmEvery: confirmEvery}
	if stopAt > 0 {
		opts.Goal = func(sess *core.Session) bool {
			return sess.Precision(corpus.Truth) >= stopAt
		}
	}
	s := cfg.session(corpus.DB, opts)
	curve := []CurvePoint{{Effort: 0, Value: s.Precision(corpus.Truth)}}
	s.Observer = func(sess *core.Session) {
		e := float64(len(sess.History())) / float64(corpus.DB.NumClaims)
		curve = append(curve, CurvePoint{Effort: e, Value: sess.Precision(corpus.Truth)})
	}
	s.Run(user)
	return curve, s
}

// Fig6Row is one precision-vs-effort curve of Fig. 6.
type Fig6Row struct {
	Dataset  string
	Strategy string
	Curve    []CurvePoint
	// EffortTo90 is the mean user effort at which the runs that reach
	// 0.9 precision first reach it (the headline comparison of §8.4); 0
	// when none does. Reach90 counts those runs.
	EffortTo90 float64
	Reach90    Reach
}

// Fig6Result holds all curves of Fig. 6.
type Fig6Result struct {
	Rows []Fig6Row
}

// RunFig6 reproduces Fig. 6 (effectiveness of guiding): precision versus
// label effort for the five strategies on the three datasets, with the
// user simulated by ground truth until precision 1.0 is reached.
func RunFig6(cfg Config) Fig6Result {
	cfg = cfg.withDefaults()
	var res Fig6Result
	grid := effortGrid(0.05)
	for _, prof := range cfg.profiles() {
		for _, name := range cfg.strategies() {
			var curves [][]CurvePoint
			cfg.forRuns(prof, func(seed int64, corpus *synth.Corpus) {
				user := &sim.Oracle{Truth: corpus.Truth}
				curve, _ := runTrace(corpus, name, user, cfg, seed+7, 1.0, 0)
				curves = append(curves, curve)
			})
			effort, reach := meanEffortToReach(curves, 0.9)
			res.Rows = append(res.Rows, Fig6Row{
				Dataset:    datasetName(prof),
				Strategy:   name,
				Curve:      meanCurves(curves, grid),
				EffortTo90: effort,
				Reach90:    reach,
			})
		}
	}
	return res
}

// Table renders the effort-to-90%-precision summary.
func (r Fig6Result) Table() Table {
	t := Table{
		Title:  "Fig. 6 — effectiveness of guiding (effort to reach precision >= 0.9)",
		Header: []string{"dataset", "strategy", "effort@0.9", "prec@20%", "prec@50%"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Dataset, row.Strategy, row.Reach90.cell(row.EffortTo90),
			f3(interpolateAt(row.Curve, 0.2)), f3(interpolateAt(row.Curve, 0.5)),
		})
	}
	return t
}

// Fig7Result holds the Fig. 7 curves (guiding with erroneous input); the
// effort axis counts labels plus repairs.
type Fig7Result struct {
	ErrorProb float64
	Rows      []Fig6Row
}

// RunFig7 reproduces Fig. 7: the Fig. 6 protocol with user mistakes at
// probability p = 0.2 and the confirmation check triggered after each 1%
// of validations (§8.5).
func RunFig7(cfg Config) Fig7Result {
	cfg = cfg.withDefaults()
	const p = 0.2
	res := Fig7Result{ErrorProb: p}
	for _, prof := range cfg.profiles() {
		for _, name := range cfg.strategies() {
			var curves [][]CurvePoint
			cfg.forRuns(prof, func(seed int64, corpus *synth.Corpus) {
				user := sim.NewErroneous(corpus.Truth, p, seed+13)
				curve, _ := runTrace(corpus, name, user, cfg, seed+7, 0.995, 0.01)
				curves = append(curves, curve)
			})
			// Fig. 7's x-axis is label+repair effort, which exceeds 1 when
			// confirmation checks re-elicit verdicts — extend the grid to
			// the last observed effort so the curve's tail reflects the
			// post-repair precision rather than a mid-run snapshot.
			maxEffort := 1.0
			for _, c := range curves {
				if n := len(c); n > 0 && c[n-1].Effort > maxEffort {
					maxEffort = c[n-1].Effort
				}
			}
			grid := effortGrid(0.05)
			for e := 1.05; e <= maxEffort+1e-9; e += 0.05 {
				grid = append(grid, e)
			}
			effort, reach := meanEffortToReach(curves, 0.9)
			res.Rows = append(res.Rows, Fig6Row{
				Dataset:    datasetName(prof),
				Strategy:   name,
				Curve:      meanCurves(curves, grid),
				EffortTo90: effort,
				Reach90:    reach,
			})
		}
	}
	return res
}

// Table renders the Fig. 7 summary.
func (r Fig7Result) Table() Table {
	t := Table{
		Title:  fmt.Sprintf("Fig. 7 — guiding with erroneous user input (p=%.2f, label+repair effort)", r.ErrorProb),
		Header: []string{"dataset", "strategy", "effort@0.9", "prec@20%", "prec@50%"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Dataset, row.Strategy, row.Reach90.cell(row.EffortTo90),
			f3(interpolateAt(row.Curve, 0.2)), f3(interpolateAt(row.Curve, 0.5)),
		})
	}
	return t
}

// Fig5Result holds the uncertainty-precision pairs of Fig. 5 and their
// Pearson correlation (the paper reports −0.8523).
type Fig5Result struct {
	Precision   []float64
	Uncertainty []float64
	Pearson     float64
}

// RunFig5 reproduces Fig. 5: information-driven validation runs tracking
// (precision, normalised uncertainty) pairs until precision 1.0.
func RunFig5(cfg Config) Fig5Result {
	cfg = cfg.withDefaults()
	var res Fig5Result
	for _, prof := range cfg.profiles() {
		cfg.forRuns(prof, func(seed int64, corpus *synth.Corpus) {
			s := cfg.session(corpus.DB, core.Options{
				Strategy: guidance.InfoGain{},
				Seed:     seed + 3,
				Goal: func(s *core.Session) bool {
					return s.Precision(corpus.Truth) >= 1
				},
			})
			var precs, uncs []float64
			s.Observer = func(sess *core.Session) {
				precs = append(precs, sess.Precision(corpus.Truth))
				uncs = append(uncs, entropy.Approx(sess.State))
			}
			s.Run(&sim.Oracle{Truth: corpus.Truth})
			// Normalise uncertainty by the run's maximum.
			maxU := 0.0
			for _, u := range uncs {
				if u > maxU {
					maxU = u
				}
			}
			for i := range uncs {
				if maxU > 0 {
					uncs[i] /= maxU
				}
				res.Precision = append(res.Precision, precs[i])
				res.Uncertainty = append(res.Uncertainty, uncs[i])
			}
		})
	}
	res.Pearson = stats.Pearson(res.Precision, res.Uncertainty)
	return res
}

// Table renders the Fig. 5 correlation summary.
func (r Fig5Result) Table() Table {
	return Table{
		Title:  "Fig. 5 — uncertainty vs precision",
		Header: []string{"samples", "pearson"},
		Rows:   [][]string{{fmt.Sprintf("%d", len(r.Precision)), f3(r.Pearson)}},
	}
}

// Table1Row is one (dataset, p) cell of Table 1.
type Table1Row struct {
	Dataset string
	P       float64
	// Detected is the fraction of injected mistakes flagged by the
	// confirmation check (the paper reports percentages).
	Detected float64
	Mistakes int
}

// Table1Result holds the mistake-detection study of §8.5.
type Table1Result struct {
	Rows []Table1Row
}

// RunTable1 reproduces Table 1: user mistakes injected with probability
// p ∈ {0.15, 0.20, 0.25, 0.30}; the confirmation check runs after each 1%
// of validations; the fraction of mistaken verdicts later flagged (and so
// re-elicited) is reported.
func RunTable1(cfg Config) Table1Result {
	cfg = cfg.withDefaults()
	var res Table1Result
	for _, prof := range cfg.profiles() {
		for _, p := range []float64{0.15, 0.20, 0.25, 0.30} {
			detected, mistakes := 0, 0
			cfg.forRuns(prof, func(seed int64, corpus *synth.Corpus) {
				user := sim.NewErroneous(corpus.Truth, p, seed+17)
				_, s := runTrace(corpus, "hybrid", user, cfg, seed+7, 0, 0.01)
				d, m := countDetectedMistakes(s, corpus.Truth)
				detected += d
				mistakes += m
			})
			rate := 1.0
			if mistakes > 0 {
				rate = float64(detected) / float64(mistakes)
			}
			res.Rows = append(res.Rows, Table1Row{
				Dataset: datasetName(prof), P: p, Detected: rate, Mistakes: mistakes,
			})
		}
	}
	return res
}

// countDetectedMistakes scans a session history: a mistake is a first
// verdict for a claim that contradicts truth; it counts as detected when
// the confirmation check later re-elicited that claim (a Repaired entry).
func countDetectedMistakes(s *core.Session, truth []bool) (detected, mistakes int) {
	firstVerdict := map[int]bool{}
	reprompted := map[int]bool{}
	for _, v := range s.History() {
		if v.Repaired {
			reprompted[v.Claim] = true
			continue
		}
		if _, ok := firstVerdict[v.Claim]; !ok {
			firstVerdict[v.Claim] = v.Verdict
		}
	}
	for c, v := range firstVerdict {
		if v != truth[c] {
			mistakes++
			if reprompted[c] {
				detected++
			}
		}
	}
	return detected, mistakes
}

// Table renders Table 1.
func (r Table1Result) Table() Table {
	t := Table{
		Title:  "Table 1 — detected mistakes (%)",
		Header: []string{"dataset", "p=0.15", "p=0.20", "p=0.25", "p=0.30"},
	}
	byDataset := map[string][]string{}
	for _, row := range r.Rows {
		byDataset[row.Dataset] = append(byDataset[row.Dataset], fmt.Sprintf("%.0f", 100*row.Detected))
	}
	for _, ds := range []string{"wiki", "health", "snopes"} {
		if cells, ok := byDataset[ds]; ok {
			t.Rows = append(t.Rows, append([]string{ds}, cells...))
		}
	}
	return t
}

// Fig8Row is one (dataset, pm, precision-target) cell of Fig. 8.
type Fig8Row struct {
	Dataset    string
	SkipProb   float64
	PrecTarget float64
	// SavedEffort is the relative effort saved vs the random baseline,
	// averaged over the Compared runs in which both reached the target;
	// Censored counts the runs left out because one of the two did not.
	SavedEffort        float64
	Compared, Censored int
}

// Fig8Result holds the missing-input study of §8.5.
type Fig8Result struct {
	Rows []Fig8Row
}

// RunFig8 reproduces Fig. 8: a user skips each newly selected claim with
// probability pm (the second-best candidate is validated instead); the
// saved effort is the relative reduction in user effort against the
// random baseline when running until precision 0.7 / 0.8 / 0.9. Skipping
// early hurts the savings most (§8.5). A run in which either curve never
// reaches the target has no ratio; it is counted as censored.
func RunFig8(cfg Config) Fig8Result {
	cfg = cfg.withDefaults()
	var res Fig8Result
	targets := []float64{0.7, 0.8, 0.9}
	for _, prof := range cfg.profiles() {
		for _, pm := range []float64{0.1, 0.25, 0.5} {
			saved := make([]float64, len(targets))
			compared := make([]int, len(targets))
			censored := make([]int, len(targets))
			cfg.forRuns(prof, func(seed int64, corpus *synth.Corpus) {
				oracle := &sim.Oracle{Truth: corpus.Truth}
				skipper := sim.NewSkipper(oracle, pm, seed+19)
				skipCurve, _ := runTrace(corpus, "hybrid", skipper, cfg, seed+7, 0.95, 0)
				randCurve, _ := runTrace(corpus, "random", oracle, cfg, seed+11, 0.95, 0)
				for i, target := range targets {
					es, okS := effortToReach(skipCurve, target)
					er, okR := effortToReach(randCurve, target)
					if !okS || !okR {
						censored[i]++
						continue
					}
					compared[i]++
					if er > 0 {
						saved[i] += (er - es) / er
					}
				}
			})
			for i, target := range targets {
				row := Fig8Row{Dataset: datasetName(prof), SkipProb: pm, PrecTarget: target, Compared: compared[i], Censored: censored[i]}
				if compared[i] > 0 {
					row.SavedEffort = saved[i] / float64(compared[i])
				}
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res
}

// Table renders Fig. 8.
func (r Fig8Result) Table() Table {
	t := Table{
		Title:  "Fig. 8 — effects of missing user input (saved effort vs random baseline)",
		Header: []string{"dataset", "pm", "prec=0.7", "prec=0.8", "prec=0.9"},
	}
	type key struct {
		ds string
		pm float64
	}
	cells := map[key]map[float64]string{}
	for _, row := range r.Rows {
		k := key{row.Dataset, row.SkipProb}
		if cells[k] == nil {
			cells[k] = map[float64]string{}
		}
		cell := "-" // every run censored
		if row.Compared > 0 {
			cell = pct(row.SavedEffort)
		}
		if row.Censored > 0 {
			cell += fmt.Sprintf(" (%d censored)", row.Censored)
		}
		cells[k][row.PrecTarget] = cell
	}
	for _, ds := range []string{"wiki", "health", "snopes"} {
		for _, pm := range []float64{0.1, 0.25, 0.5} {
			k := key{ds, pm}
			if m, ok := cells[k]; ok {
				t.Rows = append(t.Rows, []string{
					ds, f2(pm), m[0.7], m[0.8], m[0.9],
				})
			}
		}
	}
	return t
}

// Fig4Result is the probability histogram study of §8.3: for each effort
// level, the frequency (%) of claims whose correct-value probability
// falls into each of ten bins.
type Fig4Result struct {
	Efforts []float64
	Bins    [][]float64 // [effort][bin] frequency in percent
}

// RunFig4 reproduces Fig. 4: hybrid validation paused at 0%, 20% and 40%
// effort; at each pause, the probability assigned to each claim's correct
// value (Pr(c=1) for true claims, Pr(c=0) for false ones) is histogrammed
// over all datasets.
func RunFig4(cfg Config) Fig4Result {
	cfg = cfg.withDefaults()
	res := Fig4Result{Efforts: []float64{0, 0.2, 0.4}}
	counts := make([][]int, len(res.Efforts))
	totals := make([]int, len(res.Efforts))
	for i := range counts {
		counts[i] = make([]int, 10)
	}
	for _, prof := range cfg.profiles() {
		corpus := synth.Generate(prof, cfg.Seed)
		user := &sim.Oracle{Truth: corpus.Truth}
		s := cfg.session(corpus.DB, core.Options{
			Strategy: &guidance.Hybrid{},
			Seed:     cfg.Seed + 7,
			Budget:   int(0.45*float64(corpus.DB.NumClaims)) + 1,
		})
		record := func(level int) {
			for c := 0; c < corpus.DB.NumClaims; c++ {
				p := s.State.P(c)
				if !corpus.Truth[c] {
					p = 1 - p
				}
				bin := int(p * 10)
				if bin > 9 {
					bin = 9
				}
				counts[level][bin]++
				totals[level]++
			}
		}
		record(0)
		nextLevel := 1
		s.Observer = func(sess *core.Session) {
			for nextLevel < len(res.Efforts) && sess.Effort() >= res.Efforts[nextLevel] {
				record(nextLevel)
				nextLevel++
			}
		}
		s.Run(user)
		for nextLevel < len(res.Efforts) {
			record(nextLevel)
			nextLevel++
		}
	}
	res.Bins = make([][]float64, len(res.Efforts))
	for i := range counts {
		res.Bins[i] = make([]float64, 10)
		for b, n := range counts[i] {
			if totals[i] > 0 {
				res.Bins[i][b] = 100 * float64(n) / float64(totals[i])
			}
		}
	}
	return res
}

// Table renders Fig. 4.
func (r Fig4Result) Table() Table {
	t := Table{
		Title:  "Fig. 4 — probabilities of correct credibility values (frequency %, bins of 0.1)",
		Header: []string{"effort", ".0-.1", ".1-.2", ".2-.3", ".3-.4", ".4-.5", ".5-.6", ".6-.7", ".7-.8", ".8-.9", ".9-1"},
	}
	for i, e := range r.Efforts {
		row := []string{pct(e)}
		for _, freq := range r.Bins[i] {
			row = append(row, fmt.Sprintf("%.1f", freq))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
