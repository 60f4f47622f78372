package experiments

import (
	"fmt"
	"math"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/entropy"
	"factcheck/internal/factdb"
	"factcheck/internal/guidance"
	"factcheck/internal/ising"
	"factcheck/internal/sim"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
	"factcheck/internal/termination"
)

// Variant names the three implementations compared in Fig. 2-3.
type Variant string

const (
	// VariantOrigin is the plain algorithm: exact entropy (Eq. 12 via
	// the Ising projection) recomputed for every candidate's what-if
	// states, sequential scoring, no graph partitioning (hypothetical
	// runs sweep the full claim set).
	VariantOrigin Variant = "origin"
	// VariantScalable replaces exact entropy with the linear
	// approximation of Eq. 13 (§4.1) but stays sequential and
	// unpartitioned.
	VariantScalable Variant = "scalable"
	// VariantParallelPartition adds the §5.1 optimisations: parallel
	// what-if scoring and component-restricted inference.
	VariantParallelPartition Variant = "parallel+partition"
)

// Variants lists the Fig. 2 variants in paper order.
func Variants() []Variant {
	return []Variant{VariantOrigin, VariantScalable, VariantParallelPartition}
}

// selectionTime runs one full iteration (selection + user input +
// incremental inference + grounding) under the given variant and returns
// the wall time — the "wait time of a user" of §8.2.
func selectionTime(v Variant, s *core.Session, corpus *synth.Corpus, cand []int, rng *stats.RNG) time.Duration {
	start := time.Now()
	var claim int
	switch v {
	case VariantParallelPartition:
		ctx := &guidance.Context{
			DB: s.DB, State: s.State, Engine: s.Engine,
			Grounding: s.Grounding(), RNG: rng,
			CandidatePool: len(cand), Workers: 0,
		}
		gains := guidance.InformationGains(ctx, cand)
		claim = cand[argmax(gains)]
	default:
		gains := make([]float64, len(cand))
		for i, c := range cand {
			gains[i] = unpartitionedGain(v, s, c)
		}
		claim = cand[argmax(gains)]
	}
	// Elicit and infer, as in Alg. 1.
	s.State.SetLabel(claim, corpus.Truth[claim])
	s.Engine.InferIncremental(s.State)
	_ = s.Engine.Grounding(s.State)
	return time.Since(start)
}

// unpartitionedGain scores one candidate without graph partitioning: the
// what-if chains sweep every claim, and the database entropy is either
// exact (origin) or the Eq. 13 approximation (scalable).
func unpartitionedGain(v Variant, s *core.Session, c int) float64 {
	e := s.Engine
	ch := e.Chain()
	cfgEM := e.Config()
	measure := func(state *factdb.State) float64 {
		if v == VariantOrigin {
			h, _ := ising.Exact(e.Model(), state)
			return h
		}
		return entropy.Approx(state)
	}
	hCur := measure(s.State)
	hypo := func(val bool) float64 {
		snap := ch.SnapshotComponentScratch(s.DB.ComponentOf(c))
		// Full, unpartitioned sweep set: every component is refreshed.
		ch.Freeze(c, val)
		for i := 0; i < cfgEM.HypoBurn; i++ {
			ch.Sweep(nil)
		}
		counts := make([]int, s.DB.NumClaims)
		for i := 0; i < cfgEM.HypoSamples; i++ {
			ch.Sweep(nil)
			for cc := 0; cc < s.DB.NumClaims; cc++ {
				if ch.Value(cc) {
					counts[cc]++
				}
			}
		}
		tmp := s.State.Clone()
		tmp.SetLabel(c, val)
		for cc := 0; cc < s.DB.NumClaims; cc++ {
			if !tmp.Labeled(cc) {
				tmp.SetP(cc, float64(counts[cc])/float64(cfgEM.HypoSamples))
			}
		}
		h := measure(tmp)
		ch.Restore(snap)
		return h
	}
	p := s.State.P(c)
	return hCur - (p*hypo(true) + (1-p)*hypo(false))
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// Fig2Row is one (dataset, variant) bar of Fig. 2.
type Fig2Row struct {
	Dataset string
	Variant Variant
	// AvgSeconds is the mean response time Δt per iteration.
	AvgSeconds float64
}

// Fig2Result holds the response-time comparison of §8.2.
type Fig2Result struct {
	Rows []Fig2Row
	// Iterations is the number of timed iterations per cell.
	Iterations int
}

// RunFig2 reproduces Fig. 2: the average per-iteration response time
// (claim selection + inference) for the three variants on the three
// datasets. The paper's claim is the *ordering* — origin slowest,
// parallel+partition fastest (< 0.5 s at published scale on the authors'
// hardware); absolute numbers depend on machine and scale.
func RunFig2(cfg Config) Fig2Result {
	cfg = cfg.withDefaults()
	iters := 5
	res := Fig2Result{Iterations: iters}
	for _, prof := range cfg.profiles() {
		for _, v := range Variants() {
			corpus := synth.Generate(prof, cfg.Seed)
			s := cfg.session(corpus.DB, core.Options{Seed: cfg.Seed + 7})
			rng := stats.NewRNG(cfg.Seed + 23)
			var total time.Duration
			for it := 0; it < iters; it++ {
				ctx := &guidance.Context{
					DB: s.DB, State: s.State, Engine: s.Engine,
					Grounding: s.Grounding(), RNG: rng,
					CandidatePool: cfg.CandidatePool, Workers: cfg.Workers,
				}
				cand := (guidance.Uncertainty{}).Rank(ctx, cfg.CandidatePool)
				total += selectionTime(v, s, corpus, cand, rng)
			}
			res.Rows = append(res.Rows, Fig2Row{
				Dataset:    datasetName(prof),
				Variant:    v,
				AvgSeconds: total.Seconds() / float64(iters),
			})
		}
	}
	return res
}

// Table renders Fig. 2.
func (r Fig2Result) Table() Table {
	t := Table{
		Title:  fmt.Sprintf("Fig. 2 — avg response time per iteration (s, %d iterations)", r.Iterations),
		Header: []string{"dataset", "origin", "scalable", "parallel+partition"},
	}
	byDS := map[string]map[Variant]float64{}
	for _, row := range r.Rows {
		if byDS[row.Dataset] == nil {
			byDS[row.Dataset] = map[Variant]float64{}
		}
		byDS[row.Dataset][row.Variant] = row.AvgSeconds
	}
	for _, ds := range []string{"wiki", "health", "snopes"} {
		if m, ok := byDS[ds]; ok {
			t.Rows = append(t.Rows, []string{ds, f3(m[VariantOrigin]), f3(m[VariantScalable]), f3(m[VariantParallelPartition])})
		}
	}
	return t
}

// Fig3Row is one (variant, effort-bin) point of Fig. 3.
type Fig3Row struct {
	Variant Variant
	Effort  float64
	Seconds float64
}

// Fig3Result holds the response-time-vs-effort study (§8.2, snopes).
type Fig3Result struct {
	Rows []Fig3Row
}

// RunFig3 reproduces Fig. 3: per-iteration response time across the
// validation run, bucketed by label effort, on the largest dataset
// (snopes). The paper observes a peak between 40% and 60% effort, where
// user input enables the most new inferences.
func RunFig3(cfg Config) Fig3Result {
	cfg = cfg.withDefaults()
	prof := scaleFor(synth.Snopes, cfg.TargetClaims)
	var res Fig3Result
	bins := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	for _, v := range Variants() {
		corpus := synth.Generate(prof, cfg.Seed)
		s := cfg.session(corpus.DB, core.Options{Seed: cfg.Seed + 7})
		rng := stats.NewRNG(cfg.Seed + 29)
		binTime := make([]time.Duration, len(bins))
		binN := make([]int, len(bins))
		for s.State.NumLabeled() < corpus.DB.NumClaims {
			ctx := &guidance.Context{
				DB: s.DB, State: s.State, Engine: s.Engine,
				Grounding: s.Grounding(), RNG: rng,
				CandidatePool: cfg.CandidatePool, Workers: cfg.Workers,
			}
			cand := (guidance.Uncertainty{}).Rank(ctx, cfg.CandidatePool)
			if len(cand) == 0 {
				break
			}
			dt := selectionTime(v, s, corpus, cand, rng)
			e := s.State.Effort()
			for bi, hi := range bins {
				if e <= hi+1e-9 {
					binTime[bi] += dt
					binN[bi]++
					break
				}
			}
		}
		for bi, hi := range bins {
			if binN[bi] > 0 {
				res.Rows = append(res.Rows, Fig3Row{
					Variant: v, Effort: hi,
					Seconds: binTime[bi].Seconds() / float64(binN[bi]),
				})
			}
		}
	}
	return res
}

// Table renders Fig. 3.
func (r Fig3Result) Table() Table {
	t := Table{
		Title:  "Fig. 3 — response time vs label effort (snopes)",
		Header: []string{"effort<=", "origin", "scalable", "parallel+partition"},
	}
	byBin := map[float64]map[Variant]float64{}
	for _, row := range r.Rows {
		if byBin[row.Effort] == nil {
			byBin[row.Effort] = map[Variant]float64{}
		}
		byBin[row.Effort][row.Variant] = row.Seconds
	}
	for _, bin := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		if m, ok := byBin[bin]; ok {
			t.Rows = append(t.Rows, []string{
				pct(bin), f3(m[VariantOrigin]), f3(m[VariantScalable]), f3(m[VariantParallelPartition]),
			})
		}
	}
	return t
}

// Fig9Point is one effort-binned sample of the early-termination traces.
type Fig9Point struct {
	Effort    float64
	PrecImp   float64 // precision improvement R_i (%)
	URR       float64 // uncertainty reduction rate (%)
	CNG       float64 // amount of changes (%)
	PRE       float64 // validated predictions (%)
	PIR       float64 // precision improvement rate (%)
	Precision float64
}

// Fig9Result holds the §8.6 indicator traces.
type Fig9Result struct {
	Points []Fig9Point
}

// RunFig9 reproduces Fig. 9: a hybrid validation run on the snopes
// profile with all four §6.1 indicators traced against label effort.
func RunFig9(cfg Config) Fig9Result {
	cfg = cfg.withDefaults()
	prof := scaleFor(synth.Snopes, cfg.TargetClaims)
	corpus := synth.Generate(prof, cfg.Seed)
	user := &sim.Oracle{Truth: corpus.Truth}
	s := cfg.session(corpus.DB, core.Options{Seed: cfg.Seed + 7})
	p0 := s.Precision(corpus.Truth)
	tracker := termination.NewTracker(5)
	var res Fig9Result
	cvEvery := corpus.DB.NumClaims / 10
	if cvEvery < 1 {
		cvEvery = 1
	}
	rng := stats.NewRNG(cfg.Seed + 31)
	s.Observer = func(sess *core.Session) {
		tracker.ObserveSession(sess)
		if sess.State.NumLabeled()%cvEvery == 0 {
			if a := termination.CrossValidate(sess.Engine, sess.State, 5, rng); a > 0 {
				tracker.ObserveCV(a)
			}
		}
		pi := sess.Precision(corpus.Truth)
		res.Points = append(res.Points, Fig9Point{
			Effort:    sess.Effort(),
			PrecImp:   100 * factdb.PrecisionImprovement(pi, p0),
			URR:       100 * tracker.URR(),
			CNG:       100 * tracker.CNG(),
			PRE:       100 * tracker.PRE(),
			PIR:       100 * tracker.PIR(),
			Precision: pi,
		})
	}
	s.Run(user)
	return res
}

// Table renders Fig. 9 at coarse effort steps.
func (r Fig9Result) Table() Table {
	t := Table{
		Title:  "Fig. 9 — early termination indicators vs label effort",
		Header: []string{"effort", "prec.imp%", "URR%", "CNG%", "PRE%", "PIR%"},
	}
	for _, target := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		// Pick the closest recorded point.
		best := -1
		for i, p := range r.Points {
			if best < 0 || math.Abs(p.Effort-target) < math.Abs(r.Points[best].Effort-target) {
				best = i
			}
		}
		if best < 0 {
			continue
		}
		p := r.Points[best]
		t.Rows = append(t.Rows, []string{
			pct(p.Effort), f2(p.PrecImp), f2(p.URR), f2(p.CNG), f2(p.PRE), f2(p.PIR),
		})
	}
	return t
}
