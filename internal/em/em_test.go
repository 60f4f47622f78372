package em

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"factcheck/internal/factdb"
	"factcheck/internal/gibbs"
	"factcheck/internal/stats"
)

// featureDB builds a database where a single document feature carries the
// ground truth signal: docs of true claims have feature ≈ +1, docs of
// false claims ≈ −1, with Gaussian noise. Claims alternate true/false.
func featureDB(t *testing.T, nClaims, docsPerClaim int, noise float64, seed int64) (*factdb.DB, []bool) {
	t.Helper()
	r := stats.NewRNG(seed)
	truth := make([]bool, nClaims)
	for i := range truth {
		truth[i] = i%2 == 0
	}
	db := &factdb.DB{NumClaims: nClaims}
	nSrc := 4
	for s := 0; s < nSrc; s++ {
		db.AddSource([]float64{0})
	}
	for c := 0; c < nClaims; c++ {
		for k := 0; k < docsPerClaim; k++ {
			f := -1.0
			if truth[c] {
				f = 1.0
			}
			f += noise * r.NormFloat64()
			db.AddDocument((c+k)%nSrc, []float64{f}, factdb.ClaimRef{Claim: c, Stance: factdb.Support})
		}
	}
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	return db, truth
}

func TestInferFullLearnsFromLabels(t *testing.T) {
	db, truth := featureDB(t, 60, 3, 0.4, 1)
	state := factdb.NewState(db.NumClaims)
	// Label the first 20 claims with ground truth.
	for c := 0; c < 20; c++ {
		state.SetLabel(c, truth[c])
	}
	e := NewEngine(db, DefaultConfig(), 7)
	e.InferFull(state)
	g := e.Grounding(state)
	// Precision on the unlabeled claims must beat chance comfortably.
	correct, total := 0, 0
	for c := 20; c < db.NumClaims; c++ {
		total++
		if g[c] == truth[c] {
			correct++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.8 {
		t.Fatalf("unlabeled precision = %v, want >= 0.8", acc)
	}
}

func TestInferWithoutLabelsStaysNearUniform(t *testing.T) {
	db, _ := featureDB(t, 30, 2, 0.4, 2)
	state := factdb.NewState(db.NumClaims)
	e := NewEngine(db, DefaultConfig(), 3)
	e.InferFull(state)
	// With no labels, the M-step targets are the E-step marginals of a
	// zero model (~0.5), so probabilities must remain moderate.
	for c := 0; c < db.NumClaims; c++ {
		if p := state.P(c); p < 0.05 || p > 0.95 {
			t.Fatalf("P(%d) = %v drifted to certainty without any labels", c, p)
		}
	}
}

func TestLabelsArePinnedThroughInference(t *testing.T) {
	db, truth := featureDB(t, 20, 2, 0.4, 3)
	state := factdb.NewState(db.NumClaims)
	state.SetLabel(0, !truth[0]) // adversarial label; must stay pinned
	e := NewEngine(db, DefaultConfig(), 5)
	e.InferFull(state)
	if p := state.P(0); p != 0 && p != 1 {
		t.Fatalf("labelled claim P = %v, want pinned", p)
	}
	if v, ok := state.Label(0); !ok || v == truth[0] {
		t.Fatal("label content changed")
	}
	g := e.Grounding(state)
	if g[0] == truth[0] {
		t.Fatal("grounding must honour the (adversarial) label")
	}
}

func TestInferIncrementalImproves(t *testing.T) {
	db, truth := featureDB(t, 40, 3, 0.5, 4)
	state := factdb.NewState(db.NumClaims)
	e := NewEngine(db, DefaultConfig(), 11)
	e.InferFull(state)
	g0 := e.Grounding(state)
	p0 := g0.Precision(truth)
	// Feed 15 labels one at a time through the incremental path.
	for c := 0; c < 15; c++ {
		state.SetLabel(c, truth[c])
		e.InferIncremental(state)
	}
	g1 := e.Grounding(state)
	p1 := g1.Precision(truth)
	if p1 <= p0 {
		t.Fatalf("incremental inference did not improve precision: %v -> %v", p0, p1)
	}
	if p1 < 0.7 {
		t.Fatalf("precision after 15 labels = %v, want >= 0.7", p1)
	}
}

func TestInferIncrementalBeforeFullFallsBack(t *testing.T) {
	db, _ := featureDB(t, 10, 2, 0.4, 5)
	state := factdb.NewState(db.NumClaims)
	e := NewEngine(db, DefaultConfig(), 13)
	e.InferIncremental(state) // must not panic; falls back to full
	if e.LastSamples() == nil {
		t.Fatal("no samples after fallback inference")
	}
}

func TestThetaRoundTrip(t *testing.T) {
	db, _ := featureDB(t, 10, 2, 0.4, 6)
	e := NewEngine(db, DefaultConfig(), 17)
	th := e.Theta()
	for i := range th {
		th[i] = float64(i) * 0.1
	}
	e.SetTheta(th)
	got := e.Theta()
	for i := range th {
		if got[i] != th[i] {
			t.Fatalf("theta[%d] = %v, want %v", i, got[i], th[i])
		}
	}
	// Theta() must return a copy.
	got[0] = 99
	if e.Theta()[0] == 99 {
		t.Fatal("Theta aliases internal state")
	}
}

func TestHypotheticalRollsBack(t *testing.T) {
	db, truth := featureDB(t, 20, 2, 0.4, 7)
	state := factdb.NewState(db.NumClaims)
	for c := 0; c < 5; c++ {
		state.SetLabel(c, truth[c])
	}
	e := NewEngine(db, DefaultConfig(), 19)
	e.InferFull(state)

	ch := e.Chain()
	before := make([]bool, db.NumClaims)
	for c := range before {
		before[c] = ch.Value(c)
	}
	res := e.Hypothetical(ch, 10, true)
	if len(res.Members) == 0 {
		t.Fatal("hypothetical returned no members")
	}
	for c := range before {
		if ch.Value(c) != before[c] {
			t.Fatalf("hypothetical leaked: claim %d changed", c)
		}
	}
	for _, p := range res.Marginals {
		if p < 0 || p > 1 {
			t.Fatalf("marginal out of range: %v", p)
		}
	}
}

func TestHypotheticalClampDrivesMarginal(t *testing.T) {
	db, _ := featureDB(t, 12, 2, 0.4, 8)
	state := factdb.NewState(db.NumClaims)
	e := NewEngine(db, DefaultConfig(), 23)
	e.InferFull(state)
	res := e.Hypothetical(e.Chain(), 3, true)
	found := false
	for i, m := range res.Members {
		if m == 3 {
			found = true
			if res.Marginals[i] != 1 {
				t.Fatalf("clamped claim marginal = %v, want 1", res.Marginals[i])
			}
		}
	}
	if !found {
		t.Fatal("clamped claim not in its own component result")
	}
}

func TestWorkerChainIndependence(t *testing.T) {
	db, _ := featureDB(t, 16, 2, 0.4, 9)
	state := factdb.NewState(db.NumClaims)
	e := NewEngine(db, DefaultConfig(), 29)
	e.InferFull(state)
	ws := workers(e, 2)
	before := make([]bool, db.NumClaims)
	for c := range before {
		before[c] = e.Chain().Value(c)
	}
	// Churn the workers heavily.
	for i := 0; i < 10; i++ {
		for _, w := range ws {
			w.Sweep(nil)
		}
	}
	for c := range before {
		if e.Chain().Value(c) != before[c] {
			t.Fatal("worker chain mutated engine chain")
		}
	}
}

func TestGroundingMatchesStrongMarginals(t *testing.T) {
	db, truth := featureDB(t, 30, 3, 0.3, 10)
	state := factdb.NewState(db.NumClaims)
	for c := 0; c < 15; c++ {
		state.SetLabel(c, truth[c])
	}
	e := NewEngine(db, DefaultConfig(), 31)
	e.InferFull(state)
	g := e.Grounding(state)
	for c := 15; c < db.NumClaims; c++ {
		p := state.P(c)
		if p > 0.9 && !g[c] {
			t.Fatalf("P(%d)=%v but grounding false", c, p)
		}
		if p < 0.1 && g[c] {
			t.Fatalf("P(%d)=%v but grounding true", c, p)
		}
	}
}

// TestFingerprintTextNamesEveryField: an image written under another
// Config value is refused, whichever field differs.
func TestFingerprintTextNamesEveryField(t *testing.T) {
	text, typ := DefaultConfig().FingerprintText(), reflect.TypeOf(Config{})
	for i := range typ.NumField() {
		if name := typ.Field(i).Name; !strings.Contains(" "+text[1:], " "+name+":") {
			t.Errorf("%s is missing from %s", name, text)
		}
	}
}

func TestInferenceIdenticalAcrossWorkerCounts(t *testing.T) {
	// The component-sharded E-step gives every component its own
	// deterministic RNG stream, so the inferred probabilities must be
	// bit-identical whether one worker or many sweep the shards.
	db, truth := featureDB(t, 50, 3, 0.4, 21)
	infer := func(workers int) []float64 {
		state := factdb.NewState(db.NumClaims)
		for c := 0; c < 10; c++ {
			state.SetLabel(c, truth[c])
		}
		e := NewEngine(db, DefaultConfig(), 43)
		e.SetParallelism(workers, nil)
		e.InferFull(state)
		for c := 10; c < 14; c++ {
			state.SetLabel(c, truth[c])
			e.InferIncremental(state)
		}
		out := make([]float64, db.NumClaims)
		for c := range out {
			out[c] = state.P(c)
		}
		return out
	}
	want := infer(1)
	for _, workers := range []int{2, 4} {
		got := infer(workers)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("workers=%d: P(%d) = %v, want %v", workers, c, got[c], want[c])
			}
		}
	}
}

func TestHoldoutMarginalsDeterministic(t *testing.T) {
	// Holdouts spanning several components all draw from the engine
	// chain's one RNG stream; component visit order must therefore be
	// fixed (sorted), not map order. Build a many-component DB whose
	// claims carry conflicting evidence (one support + one refute doc
	// each), so the holdout marginals stay mid-range and genuinely
	// depend on which stream segment a component consumes — saturated
	// marginals would mask an order bug.
	const nComp = 8
	db := &factdb.DB{}
	truth := make([]bool, 0, 2*nComp)
	for s := 0; s < nComp; s++ {
		db.AddSource(nil)
		for k := 0; k < 2; k++ {
			for _, st := range []factdb.Stance{factdb.Support, factdb.Refute} {
				db.AddDocument(s, nil, factdb.ClaimRef{Claim: db.NumClaims, Stance: st})
			}
			truth = append(truth, (s+k)%2 == 0)
			db.NumClaims++
		}
	}
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	if db.NumComponents() < nComp {
		t.Fatalf("expected %d components, got %d", nComp, db.NumComponents())
	}
	run := func() []float64 {
		state := factdb.NewState(db.NumClaims)
		holdout := make([]int, 0, 12)
		for c := 0; c < 12; c++ {
			state.SetLabel(c, truth[c])
			holdout = append(holdout, c)
		}
		e := NewEngine(db, DefaultConfig(), 53)
		e.InferFull(state)
		return e.HoldoutMarginals(state, holdout)
	}
	want := run()
	for trial := 0; trial < 5; trial++ {
		got := run()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: holdout marginal[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.BurnIn <= 0 || cfg.Samples <= 0 || cfg.IncBurnIn <= 0 || cfg.IncSamples <= 0 {
		t.Fatal("gibbs budgets must be positive")
	}
	if cfg.EMIters <= 0 {
		t.Fatal("EM must alternate at least once")
	}
	if cfg.BurnIn < cfg.IncBurnIn || cfg.Samples < cfg.IncSamples {
		t.Fatal("incremental budgets should not exceed full budgets")
	}
}

func TestMarginalUncertaintyDropsWithLabels(t *testing.T) {
	db, truth := featureDB(t, 40, 3, 0.5, 11)
	stateA := factdb.NewState(db.NumClaims)
	eA := NewEngine(db, DefaultConfig(), 37)
	eA.InferFull(stateA)
	hBefore := 0.0
	for c := 0; c < db.NumClaims; c++ {
		hBefore += stats.BinaryEntropy(stateA.P(c))
	}
	stateB := factdb.NewState(db.NumClaims)
	for c := 0; c < 20; c++ {
		stateB.SetLabel(c, truth[c])
	}
	eB := NewEngine(db, DefaultConfig(), 37)
	eB.InferFull(stateB)
	hAfter := 0.0
	for c := 0; c < db.NumClaims; c++ {
		hAfter += stats.BinaryEntropy(stateB.P(c))
	}
	if !(hAfter < hBefore) {
		t.Fatalf("entropy did not drop with labels: %v -> %v", hBefore, hAfter)
	}
	if math.IsNaN(hAfter) || math.IsNaN(hBefore) {
		t.Fatal("NaN entropy")
	}
}

// disjointDB builds two isolated claim components (disjoint sources),
// each with corroborating documents, for incremental-isolation tests.
func disjointDB(t *testing.T) *factdb.DB {
	t.Helper()
	db := &factdb.DB{NumClaims: 6}
	for s := 0; s < 2; s++ {
		db.AddSource([]float64{0})
	}
	for c := 0; c < 6; c++ {
		src := 0
		if c >= 3 {
			src = 1
		}
		for k := 0; k < 2; k++ {
			db.AddDocument(src, []float64{0.5}, factdb.ClaimRef{Claim: c, Stance: factdb.Support})
		}
	}
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestInferComponentIsolatesComponents(t *testing.T) {
	db := disjointDB(t)
	if db.NumComponents() != 2 {
		t.Fatalf("components = %d, want 2", db.NumComponents())
	}
	e := NewEngine(db, DefaultConfig(), 31)
	state := factdb.NewState(db.NumClaims)
	e.InferFull(state)

	compA := db.ComponentOf(0)
	var before []float64
	for c := 3; c < 6; c++ { // component B marginals
		before = append(before, state.P(c))
	}
	gBefore := e.Grounding(state)

	state.SetLabel(0, true)
	if !e.InferComponent(state, compA, 77) {
		t.Fatal("InferComponent refused after a full inference")
	}

	// Component B must be bit-for-bit untouched — marginals, samples,
	// grounding.
	for i, c := 0, 3; c < 6; c, i = c+1, i+1 {
		if state.P(c) != before[i] {
			t.Fatalf("foreign claim %d marginal moved: %v -> %v", c, before[i], state.P(c))
		}
	}
	gAfter := e.Grounding(state)
	for c := 3; c < 6; c++ {
		if gAfter[c] != gBefore[c] {
			t.Fatalf("foreign claim %d grounding flipped", c)
		}
	}
	// The labelled claim is pinned and its component refreshed.
	if state.P(0) != 1 {
		t.Fatalf("label not pinned: P(0) = %v", state.P(0))
	}
	if !gAfter[0] {
		t.Fatal("grounding ignores the new label")
	}

	// Determinism: an identically driven engine lands on identical
	// marginals everywhere.
	e2 := NewEngine(db, DefaultConfig(), 31)
	state2 := factdb.NewState(db.NumClaims)
	e2.InferFull(state2)
	state2.SetLabel(0, true)
	e2.InferComponent(state2, compA, 77)
	for c := 0; c < db.NumClaims; c++ {
		if state.P(c) != state2.P(c) {
			t.Fatalf("claim %d: not deterministic (%v vs %v)", c, state.P(c), state2.P(c))
		}
	}
}

func TestInferComponentBeforeFullRefuses(t *testing.T) {
	db := disjointDB(t)
	e := NewEngine(db, DefaultConfig(), 33)
	state := factdb.NewState(db.NumClaims)
	state.SetLabel(0, true)
	if e.InferComponent(state, db.ComponentOf(0), 1) {
		t.Fatal("InferComponent must refuse before the first full inference")
	}
}

// LastSamples returns Ω*, the Gibbs samples of the most recent E-step
// (nil before the first inference).
func (e *Engine) LastSamples() *gibbs.SampleSet { return e.samples }
