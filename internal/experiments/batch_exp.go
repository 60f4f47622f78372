package experiments

import (
	"fmt"
	"math"

	"factcheck/internal/core"
	"factcheck/internal/sim"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// CostSaving is CS(k) = 1 − 1/k^α, the §8.7 model of set-up costs saved
// by validating k claims per batch under rail factor α.
func CostSaving(k int, alpha float64) float64 {
	if k < 1 {
		k = 1
	}
	return 1 - 1/math.Pow(float64(k), alpha)
}

// BatchSizes lists the §8.7 batch sizes.
func BatchSizes() []int { return []int{1, 2, 5, 10, 20} }

// Fig10Row is one (dataset, k, α) point of Fig. 10.
type Fig10Row struct {
	Dataset string
	K       int
	Alpha   float64
	// CostSaving is CS(k) in percent.
	CostSaving float64
	// PrecDegradation is the relative precision loss versus the
	// unbatched (k = 1) run at equal effort, in percent.
	PrecDegradation float64
}

// Fig10Result holds the static-batch-size study of §8.7.
type Fig10Result struct {
	Rows []Fig10Row
}

// RunFig10 reproduces Fig. 10: validation with static batch sizes
// k ∈ {1, 2, 5, 10, 20}; inference runs only once per batch, so precision
// at equal effort degrades as k grows while the cost saving CS(k)
// improves. α only rescales the cost axis.
func RunFig10(cfg Config) Fig10Result {
	cfg = cfg.withDefaults()
	var res Fig10Result
	alphas := []float64{0.25, 0.5, 1}
	for _, prof := range cfg.profiles() {
		// Precision at a fixed 50% effort for each k, averaged over runs.
		precAt := map[int]float64{}
		for _, k := range BatchSizes() {
			var sum float64
			cfg.forRuns(prof, func(seed int64, corpus *synth.Corpus) {
				opts := core.Options{Seed: seed + 7, Budget: corpus.DB.NumClaims / 2}
				if k > 1 {
					opts.BatchSize = k
				}
				s := cfg.session(corpus.DB, opts)
				s.Run(&sim.Oracle{Truth: corpus.Truth})
				sum += s.Precision(corpus.Truth)
			})
			precAt[k] = sum / float64(cfg.Runs)
		}
		base := precAt[1]
		for _, k := range BatchSizes() {
			degr := 0.0
			if base > 0 {
				degr = 100 * (base - precAt[k]) / base
			}
			if degr < 0 {
				degr = 0
			}
			for _, a := range alphas {
				res.Rows = append(res.Rows, Fig10Row{
					Dataset:         datasetName(prof),
					K:               k,
					Alpha:           a,
					CostSaving:      100 * CostSaving(k, a),
					PrecDegradation: degr,
				})
			}
		}
	}
	return res
}

// Table renders Fig. 10 (α = 0.5 column set; other alphas only move the
// cost axis).
func (r Fig10Result) Table() Table {
	t := Table{
		Title:  "Fig. 10 — static batch size (precision degradation vs cost saving)",
		Header: []string{"dataset", "k", "CS(α=1/4)%", "CS(α=1/2)%", "CS(α=1)%", "prec.degr%"},
	}
	type key struct {
		ds string
		k  int
	}
	cs := map[key]map[float64]float64{}
	degr := map[key]float64{}
	for _, row := range r.Rows {
		kk := key{row.Dataset, row.K}
		if cs[kk] == nil {
			cs[kk] = map[float64]float64{}
		}
		cs[kk][row.Alpha] = row.CostSaving
		degr[kk] = row.PrecDegradation
	}
	for _, ds := range []string{"wiki", "health", "snopes"} {
		for _, k := range BatchSizes() {
			kk := key{ds, k}
			if m, ok := cs[kk]; ok {
				t.Rows = append(t.Rows, []string{
					ds, fmt.Sprintf("%d", k),
					f2(m[0.25]), f2(m[0.5]), f2(m[1]), f2(degr[kk]),
				})
			}
		}
	}
	return t
}

// Fig11Row is one (dataset, k, precision-target) box of Fig. 11.
type Fig11Row struct {
	Dataset    string
	K          int
	PrecTarget float64
	CostSaving float64 // CS(k) with α = 2/3, percent
	// Effort is the distribution of the effort at which the runs that
	// reach PrecTarget first reach it; Reach counts them.
	Effort stats.BoxStats
	Reach  Reach
}

// Fig11Result holds the dynamic-batch-size study of §8.7.
type Fig11Result struct {
	Rows []Fig11Row
}

// RunFig11 reproduces Fig. 11: for each batch size, the distribution
// (box plot over runs) of user effort needed to reach precision 0.8 and
// 0.9, against the cost saving with α = 2/3. Small k reaches the target
// with less effort; large k saves more set-up cost — the trade-off that
// motivates growing k dynamically as validation progresses.
func RunFig11(cfg Config) Fig11Result {
	cfg = cfg.withDefaults()
	const alpha = 2.0 / 3.0
	cfg.Runs = max(cfg.Runs, 3) // box plots need a distribution
	var res Fig11Result
	for _, prof := range cfg.profiles() {
		for _, k := range BatchSizes() {
			efforts := map[float64][]float64{0.8: nil, 0.9: nil}
			reach := map[float64]*Reach{0.8: {}, 0.9: {}}
			cfg.forRuns(prof, func(seed int64, corpus *synth.Corpus) {
				opts := core.Options{
					Seed: seed + 7,
					Goal: func(sess *core.Session) bool {
						return sess.Precision(corpus.Truth) >= 0.92
					},
				}
				if k > 1 {
					opts.BatchSize = k
				}
				var curve []CurvePoint
				s := cfg.session(corpus.DB, opts)
				curve = append(curve, CurvePoint{0, s.Precision(corpus.Truth)})
				s.Observer = func(sess *core.Session) {
					curve = append(curve, CurvePoint{sess.Effort(), sess.Precision(corpus.Truth)})
				}
				s.Run(&sim.Oracle{Truth: corpus.Truth})
				for _, target := range []float64{0.8, 0.9} {
					if e, ok := reach[target].observe(curve, target); ok {
						efforts[target] = append(efforts[target], e)
					}
				}
			})
			for _, target := range []float64{0.8, 0.9} {
				row := Fig11Row{
					Dataset:    datasetName(prof),
					K:          k,
					PrecTarget: target,
					CostSaving: 100 * CostSaving(k, alpha),
					Reach:      *reach[target],
				}
				if len(efforts[target]) > 0 {
					row.Effort = stats.Box(efforts[target])
				}
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res
}

// Table renders Fig. 11 medians.
func (r Fig11Result) Table() Table {
	t := Table{
		Title:  "Fig. 11 — dynamic batch size (effort to reach precision, α=2/3)",
		Header: []string{"dataset", "k", "CS%", "effort@0.8 (med)", "effort@0.9 (med)"},
	}
	type key struct {
		ds string
		k  int
	}
	med := map[key]map[float64]string{}
	cs := map[key]float64{}
	for _, row := range r.Rows {
		kk := key{row.Dataset, row.K}
		if med[kk] == nil {
			med[kk] = map[float64]string{}
		}
		med[kk][row.PrecTarget] = row.Reach.cell(row.Effort.Median)
		cs[kk] = row.CostSaving
	}
	for _, ds := range []string{"wiki", "health", "snopes"} {
		for _, k := range BatchSizes() {
			kk := key{ds, k}
			if m, ok := med[kk]; ok {
				t.Rows = append(t.Rows, []string{
					ds, fmt.Sprintf("%d", k), f2(cs[kk]), m[0.8], m[0.9],
				})
			}
		}
	}
	return t
}
