// Package experiments contains one runner per table and figure of the
// paper's evaluation (§8), plus the ablation studies listed in DESIGN.md.
// Each runner returns typed rows and can render itself as an aligned
// text table; bench_test.go and cmd/factcheck-bench are thin wrappers.
//
// Corpora are generated at a configurable scale (DESIGN.md §5): every
// dataset is shrunk so it has about Config.TargetClaims claims while the
// documents-per-claim and sources-per-claim ratios of §8.1 are preserved.
package experiments

import (
	"fmt"
	"strings"

	"factcheck/internal/synth"
)

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
	return StrategyNames()
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
