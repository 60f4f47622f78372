package stream

import (
	"math"
	"testing"

	"factcheck/internal/crf"
	"factcheck/internal/em"
	"factcheck/internal/factdb"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

func TestStepSizeRobbinsMonro(t *testing.T) {
	e := New(3)
	// γ_t decreasing, Σγ diverges (exponent < 1), Σγ² converges
	// (exponent > 0.5). Check numerically over a long horizon.
	var sum, sumSq, prev float64
	prev = math.Inf(1)
	for i := 1; i <= 200000; i++ {
		g := e.StepSize(i)
		if g > prev {
			t.Fatalf("step size not decreasing at t=%d", i)
		}
		prev = g
		sum += g
		sumSq += g * g
	}
	if sum < 50 {
		t.Fatalf("Σγ = %v; should grow without bound", sum)
	}
	if sumSq > 10 {
		t.Fatalf("Σγ² = %v; should converge", sumSq)
	}
}

func TestObserveClaimWithLabelsLearns(t *testing.T) {
	// Stream labelled claims whose single feature matches the label; the
	// engine must learn a positive weight and predict new claims.
	e := New(1)
	r := stats.NewRNG(3)
	for i := 0; i < 300; i++ {
		truth := r.Bernoulli(0.5)
		x := -1.0
		if truth {
			x = 1.0
		}
		x += 0.3 * r.NormFloat64()
		lbl := truth
		e.ObserveClaim([][]float64{{x}}, []float64{1}, &lbl)
	}
	if p := e.Predict([][]float64{{1.5}}, []float64{1}); p < 0.8 {
		t.Fatalf("Predict(+) = %v, want > 0.8", p)
	}
	if p := e.Predict([][]float64{{-1.5}}, []float64{1}); p > 0.2 {
		t.Fatalf("Predict(-) = %v, want < 0.2", p)
	}
}

func TestRefutingSignFlipsPrediction(t *testing.T) {
	e := New(1)
	r := stats.NewRNG(5)
	for i := 0; i < 300; i++ {
		truth := r.Bernoulli(0.5)
		x := -1.0
		if truth {
			x = 1.0
		}
		lbl := truth
		e.ObserveClaim([][]float64{{x}}, []float64{1}, &lbl)
	}
	// A refuting clique with strong "credible content" evidence argues
	// the claim is false.
	if p := e.Predict([][]float64{{1.5}}, []float64{-1}); p > 0.2 {
		t.Fatalf("refuted Predict = %v, want < 0.2", p)
	}
}

func TestBufferCapEnforced(t *testing.T) {
	e := newWithBufferCap(1, 50)
	for i := 0; i < 100; i++ {
		lbl := true
		e.ObserveClaim([][]float64{{1}, {0.5}}, []float64{1, 1}, &lbl)
	}
	if e.BufferLen() > 50 {
		t.Fatalf("buffer = %d, cap 50", e.BufferLen())
	}
	if e.T() != 100 {
		t.Fatalf("T = %d", e.T())
	}
}

func TestSetThetaExchange(t *testing.T) {
	e := New(4)
	th := []float64{0.1, -0.2, 0.3, 0.4}
	e.SetTheta(th)
	got := e.Theta()
	for i := range th {
		if got[i] != th[i] {
			t.Fatal("theta exchange failed")
		}
	}
	got[0] = 99
	if e.Theta()[0] == 99 {
		t.Fatal("Theta aliases internal state")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	e.SetTheta([]float64{1})
}

func TestObserveClaimEmptyRowsIgnored(t *testing.T) {
	e := New(2)
	e.ObserveClaim(nil, nil, nil)
	if e.T() != 0 || e.BufferLen() != 0 {
		t.Fatal("empty observation should be a no-op")
	}
}

func TestUnlabelledObservationUsesOwnPrediction(t *testing.T) {
	e := New(1)
	// Seed a confident model, then stream unlabelled claims; the
	// parameters should remain of the same sign (self-training keeps the
	// direction).
	lbl := true
	for i := 0; i < 50; i++ {
		e.ObserveClaim([][]float64{{1}}, []float64{1}, &lbl)
	}
	f := false
	for i := 0; i < 50; i++ {
		e.ObserveClaim([][]float64{{-1}}, []float64{1}, &f)
	}
	before := e.Theta()[0]
	if before <= 0 {
		t.Fatalf("seed weight = %v, want positive", before)
	}
	for i := 0; i < 30; i++ {
		e.ObserveClaim([][]float64{{1}}, []float64{1}, nil)
	}
	if after := e.Theta()[0]; after <= 0 {
		t.Fatalf("self-training flipped the weight: %v -> %v", before, after)
	}
}

func TestRowsForClaim(t *testing.T) {
	corpus := synth.Generate(synth.Wikipedia.Scaled(0.1), 7)
	m := crf.New(corpus.DB)
	c := 0
	rows, signs := RowsForClaim(m, c, nil)
	if len(rows) != len(corpus.DB.Rows().ClaimCliques(c)) || len(signs) != len(rows) {
		t.Fatalf("rows = %d, cliques = %d", len(rows), len(corpus.DB.Rows().ClaimCliques(c)))
	}
	for i, row := range rows {
		if len(row) != m.Dim() {
			t.Fatalf("row %d has %d features, want %d", i, len(row), m.Dim())
		}
		if signs[i] != 1 && signs[i] != -1 {
			t.Fatalf("sign = %v", signs[i])
		}
		// Neutral trust => last feature zero.
		if row[len(row)-1] != 0 {
			t.Fatal("trust feature should be neutral with nil trust")
		}
	}
}

func TestStreamingParametersUsableByValidation(t *testing.T) {
	// End-to-end §7 exchange: a streaming engine learns from labelled
	// arrivals; its parameters are installed into an Alg. 1 engine and
	// must give an above-chance initial grounding.
	corpus := synth.Generate(synth.Wikipedia.Scaled(0.3), 11)
	m := crf.New(corpus.DB)
	se := New(m.Dim())
	// First 60% of claims arrive with verdicts (historical data).
	n := corpus.DB.NumClaims
	for i := 0; i < n*3/5; i++ {
		c := corpus.ClaimOrder[i]
		lbl := corpus.Truth[c]
		rows, signs := RowsForClaim(m, c, nil)
		se.ObserveClaim(rows, signs, &lbl)
	}
	engine := em.NewEngine(corpus.DB, em.DefaultConfig(), 13)
	engine.SetTheta(se.Theta())
	state := factdb.NewState(n)
	// Evaluate the prediction quality of the streamed parameters on the
	// untouched claims directly via the engine's chain marginals.
	engine.Chain().InitFromState(state)
	ss := engine.Chain().RunSharded(10, 40, 1, nil)
	correct, total := 0, 0
	for i := n * 3 / 5; i < n; i++ {
		c := corpus.ClaimOrder[i]
		total++
		if (ss.Marginal(c) >= 0.5) == corpus.Truth[c] {
			correct++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.6 {
		t.Fatalf("streamed parameters gave accuracy %v on unseen claims", acc)
	}
}

// T returns the number of observed claims.
func (e *Engine) T() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.t
}

// Predict returns the engine's credibility estimate for a claim given its
// clique feature rows and stance signs: σ(Σ_π sign_π·θ·x_π). This is the
// "educated guess" available for claims after their data is discarded.
func (e *Engine) Predict(rows [][]float64, signs []float64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.predictLocked(rows, signs)
}

// BufferLen returns the retained observation count.
func (e *Engine) BufferLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.ys)
}
