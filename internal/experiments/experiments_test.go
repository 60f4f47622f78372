package experiments

import (
	"strings"
	"testing"
)

// tiny returns a fast configuration for unit tests.
func tiny() Config {
	return Config{
		TargetClaims:  30,
		Seed:          7,
		Runs:          1,
		Workers:       1,
		CandidatePool: 8,
		Datasets:      []string{"wiki"},
	}
}

func TestScaleFor(t *testing.T) {
	cfg := Config{}.withDefaults()
	for _, p := range cfg.profiles() {
		if p.Claims > cfg.TargetClaims+5 {
			t.Fatalf("%s scaled to %d claims, target %d", p.Name, p.Claims, cfg.TargetClaims)
		}
	}
	// Datasets filter.
	c := tiny()
	profs := c.profiles()
	if len(profs) != 1 || datasetName(profs[0]) != "wiki" {
		t.Fatalf("profiles = %v", profs)
	}
}

// TestConfigValidate: a configuration no runner can honour is refused
// with the field it names, before anything runs; zero sizes and the
// known names pass.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string // "" = valid
	}{
		{"zero", Config{}, ""},
		{"golden", goldenConfig(), ""},
		{"known names", Config{Datasets: []string{"wiki", "snopes"}, Strategies: []string{"info", "hybrid"}}, ""},
		{"negative claims", Config{TargetClaims: -1}, "TargetClaims"},
		{"negative runs", Config{Runs: -2}, "Runs"},
		{"negative pool", Config{CandidatePool: -8}, "CandidatePool"},
		{"dataset case", Config{Datasets: []string{"Wiki"}}, `dataset "Wiki" in Datasets; valid: wiki, health, snopes`},
		{"unknown strategy", Config{Strategies: []string{"greedy"}}, `strategy "greedy" in Strategies; valid: random, uncertainty, info, source, hybrid`},
	} {
		err := tc.cfg.Validate()
		if (err == nil) != (tc.want == "") || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "333") {
		t.Fatalf("table rendering broken:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), s)
	}
}

func TestCurveHelpers(t *testing.T) {
	curve := []CurvePoint{{0, 0.5}, {0.5, 0.75}, {1, 1}}
	if got := interpolateAt(curve, 0.25); got != 0.625 {
		t.Fatalf("interpolateAt = %v", got)
	}
	if got := interpolateAt(curve, 0); got != 0.5 {
		t.Fatalf("interpolateAt(0) = %v", got)
	}
	if got := interpolateAt(curve, 2); got != 1 {
		t.Fatalf("interpolateAt(2) = %v", got)
	}
	if got, ok := effortToReach(curve, 0.75); got != 0.5 || !ok {
		t.Fatalf("effortToReach = %v, %v", got, ok)
	}
	// A curve that never reaches the target is censored at its last
	// effort, which on Fig. 7's label+repair axis may lie past 1; it
	// counts in the share, never in the mean, and alone prints as >cap.
	past := []CurvePoint{{0, 0.5}, {0.8, 0.7}, {1.55, 0.85}}
	if got, ok := effortToReach(past, 0.9); got != 1.55 || ok {
		t.Fatalf("effortToReach(unreachable) = %v, %v; want 1.55, false", got, ok)
	}
	effort, r := meanEffortToReach([][]CurvePoint{past}, 0.9)
	if effort != 0 || r != (Reach{Runs: 1, Cap: 1.55}) || r.cell(effort) != ">155.0% 0/1" {
		t.Fatalf("meanEffortToReach(unreachable) = %v, %+v, cell %q", effort, r, r.cell(effort))
	}
	late := []CurvePoint{{0, 0.5}, {1.2, 0.95}}
	effort, r = meanEffortToReach([][]CurvePoint{past, late, curve}, 0.9)
	if effort != 1.1 || r != (Reach{Runs: 3, Reached: 2, Cap: 1.55}) || r.cell(effort) != "110.0% 2/3" {
		t.Fatalf("two of three runs reach 0.9, at 1.2 and 1: mean %v, %+v, cell %q", effort, r, r.cell(effort))
	}
	mean := meanCurves([][]CurvePoint{curve, curve}, []float64{0.5, 1})
	if mean[0].Value != 0.75 || mean[1].Value != 1 {
		t.Fatalf("meanCurves = %v", mean)
	}
	if got := effortGrid(0.5); len(got) != 2 {
		t.Fatalf("effortGrid = %v", got)
	}
}

func TestCostSaving(t *testing.T) {
	if CostSaving(1, 0.5) != 0 {
		t.Fatal("CS(1) must be 0")
	}
	if !(CostSaving(20, 0.5) > CostSaving(5, 0.5)) {
		t.Fatal("CS must grow with k")
	}
	if !(CostSaving(5, 1) > CostSaving(5, 0.25)) {
		t.Fatal("CS must grow with alpha")
	}
}

func TestRunFig6Shape(t *testing.T) {
	cfg := tiny()
	cfg.Strategies = []string{"random", "hybrid"}
	res := RunFig6(cfg)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.EffortTo90 <= 0 || row.EffortTo90 > 1 || row.Reach90.Reached != row.Reach90.Runs {
			t.Fatalf("%s effort@0.9 = %v over %+v", row.Strategy, row.EffortTo90, row.Reach90)
		}
		last := row.Curve[len(row.Curve)-1]
		if last.Value < 0.95 {
			t.Fatalf("%s final precision = %v (full oracle run should approach 1)", row.Strategy, last.Value)
		}
	}
	if got := res.Table().String(); !strings.Contains(got, "hybrid") {
		t.Fatalf("table missing strategy:\n%s", got)
	}
}

func TestRunFig5NegativeCorrelation(t *testing.T) {
	res := RunFig5(tiny())
	if len(res.Precision) < 10 {
		t.Fatalf("too few samples: %d", len(res.Precision))
	}
	if res.Pearson >= -0.2 {
		t.Fatalf("uncertainty-precision Pearson = %v, want strongly negative", res.Pearson)
	}
	_ = res.Table().String()
}

func TestRunFig4MassShiftsRight(t *testing.T) {
	res := RunFig4(tiny())
	if len(res.Bins) != 3 {
		t.Fatalf("levels = %d", len(res.Bins))
	}
	// The histogram mean at an effort level: the mass should shift right
	// as effort grows (§8.3).
	mean := func(bins []float64) float64 {
		sum, total := 0.0, 0.0
		for b, freq := range bins {
			sum += (float64(b) + 0.5) / 10 * freq
			total += freq
		}
		return sum / total
	}
	m0, m2 := mean(res.Bins[0]), mean(res.Bins[2])
	if m2 <= m0 {
		t.Fatalf("correct-value mass did not shift right: %v -> %v", m0, m2)
	}
	for _, bins := range res.Bins {
		sum := 0.0
		for _, f := range bins {
			sum += f
		}
		if sum < 99 || sum > 101 {
			t.Fatalf("histogram sums to %v%%", sum)
		}
	}
	_ = res.Table().String()
}

func TestRunTable1DetectsMistakes(t *testing.T) {
	cfg := tiny()
	res := RunTable1(cfg)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Detected < 0 || row.Detected > 1 {
			t.Fatalf("detected = %v", row.Detected)
		}
		if row.Mistakes > 0 && row.Detected < 0.5 {
			t.Fatalf("p=%v: detected only %v of mistakes", row.P, row.Detected)
		}
	}
	_ = res.Table().String()
}

func TestRunFig2Ordering(t *testing.T) {
	cfg := tiny()
	res := RunFig2(cfg)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var byVariant = map[Variant]float64{}
	for _, row := range res.Rows {
		if row.AvgSeconds <= 0 {
			t.Fatalf("%s time = %v", row.Variant, row.AvgSeconds)
		}
		byVariant[row.Variant] = row.AvgSeconds
	}
	// The paper's qualitative claim: origin is the slowest variant.
	if byVariant[VariantOrigin] < byVariant[VariantParallelPartition] {
		t.Logf("warning: origin (%v) faster than parallel+partition (%v) at this tiny scale",
			byVariant[VariantOrigin], byVariant[VariantParallelPartition])
	}
	_ = res.Table().String()
}

func TestRunFig9IndicatorsConverge(t *testing.T) {
	res := RunFig9(tiny())
	if len(res.Points) < 10 {
		t.Fatalf("points = %d", len(res.Points))
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.PrecImp < first.PrecImp {
		t.Fatalf("precision improvement decreased: %v -> %v", first.PrecImp, last.PrecImp)
	}
	if last.Precision < 0.9 {
		t.Fatalf("final precision = %v", last.Precision)
	}
	// Late-stage change indicator must be small (converged).
	if last.CNG > 20 {
		t.Fatalf("final CNG = %v%%, should be near zero", last.CNG)
	}
	_ = res.Table().String()
}

func TestRunFig11Shape(t *testing.T) {
	cfg := tiny()
	cfg.TargetClaims = 20
	res := RunFig11(cfg)
	if len(res.Rows) != len(BatchSizes())*2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		b := row.Effort
		if !(b.Min <= b.Median && b.Median <= b.Max) {
			t.Fatalf("box stats disordered: %+v", b)
		}
		if b.Max > 1+1e-9 || b.Min < 0 {
			t.Fatalf("box out of range: %+v", b)
		}
	}
	_ = res.Table().String()
}

func TestRunStreamTime(t *testing.T) {
	res := RunStreamTime(tiny())
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].AvgSeconds <= 0 {
		t.Fatal("update time must be positive")
	}
	_ = res.Table().String()
}

func TestRunTable3Tradeoff(t *testing.T) {
	res := RunTable3(tiny())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var expert, crowd Table3Row
	for _, row := range res.Rows {
		if row.Population == "expert" {
			expert = row
		} else {
			crowd = row
		}
	}
	if expert.Accuracy < crowd.Accuracy {
		t.Fatalf("expert acc %v below crowd %v", expert.Accuracy, crowd.Accuracy)
	}
	if expert.AvgSeconds <= crowd.AvgSeconds {
		t.Fatalf("expert time %v not above crowd %v", expert.AvgSeconds, crowd.AvgSeconds)
	}
	_ = res.Table().String()
}

func TestAblationsRun(t *testing.T) {
	cfg := tiny()
	cfg.TargetClaims = 20
	for _, res := range []AblationResult{
		RunAblationWarmStart(cfg),
		RunAblationTrustCoupling(cfg),
		RunAblationEntropy(cfg),
		RunAblationCandidatePool(cfg),
		RunAblationBatchGreedy(cfg),
	} {
		if len(res.Rows) < 2 {
			t.Fatalf("%s: rows = %d", res.Name, len(res.Rows))
		}
		for _, row := range res.Rows {
			if row.AvgSeconds < 0 {
				t.Fatalf("%s/%s: negative time", res.Name, row.Setting)
			}
			if row.Precision < 0 || row.Precision > 1 {
				t.Fatalf("%s/%s: precision %v", res.Name, row.Setting, row.Precision)
			}
		}
		if res.Table().String() == "" {
			t.Fatalf("%s: empty table", res.Name)
		}
	}
}

func TestRunFig7WithMistakes(t *testing.T) {
	cfg := tiny()
	cfg.Strategies = []string{"hybrid"}
	res := RunFig7(cfg)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	first := row.Curve[0]
	last := row.Curve[len(row.Curve)-1]
	if last.Value < 0.6 {
		t.Fatalf("final precision with repairs = %v", last.Value)
	}
	if last.Value <= first.Value {
		t.Fatalf("erroneous-input run did not improve: %v -> %v", first.Value, last.Value)
	}
	_ = res.Table().String()
}

func TestRunFig3Shape(t *testing.T) {
	cfg := tiny()
	cfg.TargetClaims = 20
	res := RunFig3(cfg)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if row.Seconds <= 0 {
			t.Fatalf("%s at %v: time %v", row.Variant, row.Effort, row.Seconds)
		}
	}
	_ = res.Table().String()
}
