// Package experiments contains one runner per table and figure of the
// paper's evaluation (§8), plus the ablation studies listed in DESIGN.md.
// Each runner returns typed rows and can render itself as an aligned
// text table. Experiments lists them all, the one list
// cmd/factcheck-bench and the golden test iterate.
//
// Corpora are generated at a configurable scale (DESIGN.md §5): every
// dataset is shrunk so it has about Config.TargetClaims claims while the
// documents-per-claim and sources-per-claim ratios of §8.1 are preserved.
package experiments

import (
	"fmt"
	"slices"
	"strings"

	"factcheck/internal/core"
	"factcheck/internal/factdb"
	"factcheck/internal/guidance"
	"factcheck/internal/synth"
)

// Experiment is one runnable table: a figure or table of §8, §8.8's
// update time, or an ablation.
type Experiment struct {
	ID, Desc string
	// Timed marks a table that prints wall time, so it is not a function
	// of the seed alone and testdata/tables.txt leaves it out.
	Timed bool
	Run   func(Config) Table
}

// Experiments lists every experiment in id order, the order
// factcheck-bench lists and runs them in.
func Experiments() []Experiment {
	return []Experiment{
		{"ab-batch", "ablation: greedy vs random batch", true,
			func(c Config) Table { return RunAblationBatchGreedy(c).Table() }},
		{"ab-entropy", "ablation: exact vs approximate entropy", true,
			func(c Config) Table { return RunAblationEntropy(c).Table() }},
		{"ab-pool", "ablation: candidate pool size", true,
			func(c Config) Table { return RunAblationCandidatePool(c).Table() }},
		{"ab-trust", "ablation: trust coupling on/off", true,
			func(c Config) Table { return RunAblationTrustCoupling(c).Table() }},
		{"ab-warm", "ablation: warm vs cold inference", true,
			func(c Config) Table { return RunAblationWarmStart(c).Table() }},
		{"fig10", "static batch size trade-off", false,
			func(c Config) Table { return RunFig10(c).Table() }},
		{"fig11", "dynamic batch size trade-off", false,
			func(c Config) Table { return RunFig11(c).Table() }},
		{"fig2", "avg response time per iteration (3 variants × 3 datasets)", true,
			func(c Config) Table { return RunFig2(c).Table() }},
		{"fig3", "response time vs label effort (snopes)", true,
			func(c Config) Table { return RunFig3(c).Table() }},
		{"fig4", "histogram of correct-value probabilities at 0/20/40% effort", false,
			func(c Config) Table { return RunFig4(c).Table() }},
		{"fig5", "uncertainty vs precision correlation", false,
			func(c Config) Table { return RunFig5(c).Table() }},
		{"fig6", "effectiveness of guiding (5 strategies × 3 datasets)", false,
			func(c Config) Table { return RunFig6(c).Table() }},
		{"fig7", "guiding with erroneous user input (p=0.2)", false,
			func(c Config) Table { return RunFig7(c).Table() }},
		{"fig8", "effects of missing user input (skipping)", false,
			func(c Config) Table { return RunFig8(c).Table() }},
		{"fig9", "early termination indicators", false,
			func(c Config) Table { return RunFig9(c).Table() }},
		{"stream", "streaming model update time", true,
			func(c Config) Table { return RunStreamTime(c).Table() }},
		{"tab1", "detected user mistakes", false,
			func(c Config) Table { return RunTable1(c).Table() }},
		{"tab2", "streaming validation-sequence preservation (Kendall τ_b)", false,
			func(c Config) Table { return RunTable2(c).Table() }},
		{"tab3", "experts vs crowd workers", false,
			func(c Config) Table { return RunTable3(c).Table() }},
	}
}

// Config controls scale, randomness and parallelism for all runners.
type Config struct {
	// TargetClaims is the approximate corpus size per dataset; datasets
	// smaller than the target run at full published size (default 90).
	TargetClaims int
	// Seed drives corpus generation and all simulated users.
	Seed int64
	// Runs is the number of repetitions averaged where the paper
	// averages (default 1).
	Runs int
	// Workers bounds what-if parallelism (0 = GOMAXPROCS).
	Workers int
	// CandidatePool bounds what-if scoring per iteration (default 16).
	CandidatePool int
	// Datasets optionally restricts the corpora ("wiki", "health",
	// "snopes"); empty means all three.
	Datasets []string
	// Strategies optionally restricts the §8.4 strategies compared;
	// empty means all five.
	Strategies []string
}

// Validate reports the first field no runner can honour: a negative
// size, or a dataset or strategy it does not know. Zero sizes take
// their defaults.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"TargetClaims", c.TargetClaims}, {"Runs", c.Runs}, {"CandidatePool", c.CandidatePool}} {
		if f.v < 0 {
			return fmt.Errorf("experiments: %s is %d; it may not be negative", f.name, f.v)
		}
	}
	var datasets []string
	for _, p := range synth.Profiles() {
		datasets = append(datasets, p.Name)
	}
	for _, d := range c.Datasets {
		if !slices.Contains(datasets, d) {
			return fmt.Errorf("experiments: unknown dataset %q in Datasets; valid: %s", d, strings.Join(datasets, ", "))
		}
	}
	for _, s := range c.Strategies {
		if !slices.Contains(guidance.Names(), s) {
			return fmt.Errorf("experiments: unknown strategy %q in Strategies; valid: %s", s, strings.Join(guidance.Names(), ", "))
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.TargetClaims <= 0 {
		c.TargetClaims = 90
	}
	if c.Runs <= 0 {
		c.Runs = 1
	}
	if c.CandidatePool <= 0 {
		c.CandidatePool = 16
	}
	return c
}

// session opens a session with what every run shares: the paper's
// per-answer EM (a full sweep after every answer, so what-if scoring
// runs without the gain cache), c.Workers, and c.CandidatePool unless
// o sets a pool.
func (c Config) session(db *factdb.DB, o core.Options) *core.Session {
	o.FullSweepEvery = 1
	o.Workers = c.Workers
	if o.CandidatePool == 0 {
		o.CandidatePool = c.CandidatePool
	}
	return core.NewSession(db, o)
}

// forRuns calls f once per repetition over profile p with that run's
// seed, c.Seed + 1000·run, and the corpus generated from it.
func (c Config) forRuns(p synth.Profile, f func(seed int64, corpus *synth.Corpus)) {
	for run := 0; run < c.Runs; run++ {
		seed := c.Seed + int64(run)*1000
		f(seed, synth.Generate(p, seed))
	}
}

// scaleFor shrinks profile p to about target claims (never grows it).
func scaleFor(p synth.Profile, target int) synth.Profile {
	if p.Claims <= target {
		return p
	}
	return p.Scaled(float64(target) / float64(p.Claims))
}

// profiles returns the configured §8.1 datasets at the configured scale.
func (c Config) profiles() []synth.Profile {
	want := map[string]bool{}
	for _, d := range c.Datasets {
		want[d] = true
	}
	var out []synth.Profile
	for _, p := range synth.Profiles() {
		if len(want) > 0 && !want[p.Name] {
			continue
		}
		out = append(out, scaleFor(p, c.TargetClaims))
	}
	return out
}

// strategies returns the configured strategy names.
func (c Config) strategies() []string {
	if len(c.Strategies) > 0 {
		return c.Strategies
	}
	return guidance.Names()
}

// datasetName strips the scale suffix for display.
func datasetName(p synth.Profile) string {
	if i := strings.IndexByte(p.Name, '@'); i >= 0 {
		return p.Name[:i]
	}
	return p.Name
}

// Table renders rows of cells as an aligned text table with a header.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String implements fmt.Stringer.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f3 formats a float with three decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// pct formats a fraction as a percentage with one decimal.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// CurvePoint is one (effort, value) sample of a labelled curve.
type CurvePoint struct {
	Effort float64
	Value  float64
}

// interpolateAt returns the curve value at the given effort via linear
// interpolation (curves are sorted by effort).
func interpolateAt(curve []CurvePoint, effort float64) float64 {
	if len(curve) == 0 {
		return 0
	}
	if effort <= curve[0].Effort {
		return curve[0].Value
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Effort >= effort {
			a, b := curve[i-1], curve[i]
			if b.Effort == a.Effort {
				return b.Value
			}
			frac := (effort - a.Effort) / (b.Effort - a.Effort)
			return a.Value + frac*(b.Value-a.Value)
		}
	}
	return curve[len(curve)-1].Value
}

// effortToReach returns the smallest observed effort at which the curve
// value reaches the target and true, or, for a curve that never does (a
// censored run), the last effort it observed and false.
func effortToReach(curve []CurvePoint, target float64) (float64, bool) {
	for _, p := range curve {
		if p.Value >= target {
			return p.Effort, true
		}
	}
	if len(curve) == 0 {
		return 0, false
	}
	return curve[len(curve)-1].Effort, false
}

// Reach counts the runs that reached a precision target. A run that
// never reaches it is censored: it counts in Runs, not in Reached, and
// its effort enters no mean. Scoring it as effort 1 would rank a
// strategy that never gets there above one that does at an effort past
// 1, as Fig. 7's label+repair axis allows.
type Reach struct {
	Runs, Reached int
	// Cap is the largest effort a censored run ended at; 0 when no run
	// was censored.
	Cap float64
}

// observe records one run's curve; it returns the effort at which the
// run reached target, and whether it did.
func (r *Reach) observe(curve []CurvePoint, target float64) (float64, bool) {
	e, ok := effortToReach(curve, target)
	r.Runs++
	if ok {
		r.Reached++
	} else {
		r.Cap = max(r.Cap, e)
	}
	return e, ok
}

// cell renders effort, a summary over the runs that reached the target,
// beside the share that did; when none did, ">cap" takes its place.
func (r Reach) cell(effort float64) string {
	if r.Reached == 0 {
		return fmt.Sprintf(">%s 0/%d", pct(r.Cap), r.Runs)
	}
	return fmt.Sprintf("%s %d/%d", pct(effort), r.Reached, r.Runs)
}

// meanEffortToReach returns the mean effort at which the curves that
// reach target first reach it (0 when none does) and their Reach.
func meanEffortToReach(curves [][]CurvePoint, target float64) (float64, Reach) {
	var r Reach
	sum := 0.0
	for _, c := range curves {
		if e, ok := r.observe(c, target); ok {
			sum += e
		}
	}
	if r.Reached == 0 {
		return 0, r
	}
	return sum / float64(r.Reached), r
}

// meanCurves averages several runs' curves onto a common effort grid.
func meanCurves(curves [][]CurvePoint, grid []float64) []CurvePoint {
	out := make([]CurvePoint, len(grid))
	for i, g := range grid {
		sum := 0.0
		for _, c := range curves {
			sum += interpolateAt(c, g)
		}
		out[i] = CurvePoint{Effort: g, Value: sum / float64(len(curves))}
	}
	return out
}

// effortGrid returns {step, 2·step, …, 1}.
func effortGrid(step float64) []float64 {
	var out []float64
	for e := step; e <= 1+1e-9; e += step {
		out = append(out, e)
	}
	return out
}
