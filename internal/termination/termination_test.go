package termination

import (
	"math"
	"testing"

	"factcheck/internal/em"
	"factcheck/internal/factdb"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

func TestURR(t *testing.T) {
	tr := NewTracker(5)
	if tr.URR() != 0 {
		t.Fatal("URR before observations should be 0")
	}
	tr.Observe(Observation{Entropy: 10, Claims: 100})
	tr.Observe(Observation{Entropy: 8, Claims: 100})
	if got := tr.URR(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("URR = %v, want 0.2", got)
	}
	tr.Observe(Observation{Entropy: 8, Claims: 100})
	if got := tr.URR(); got != 0 {
		t.Fatalf("URR with no reduction = %v", got)
	}
}

func TestURRZeroEntropyGuard(t *testing.T) {
	tr := NewTracker(5)
	tr.Observe(Observation{Entropy: 0, Claims: 10})
	tr.Observe(Observation{Entropy: 0, Claims: 10})
	if got := tr.URR(); got != 0 {
		t.Fatalf("URR with zero entropy = %v", got)
	}
}

func TestCNG(t *testing.T) {
	tr := NewTracker(5)
	if tr.CNG() != 0 {
		t.Fatal("CNG before observations should be 0")
	}
	tr.Observe(Observation{Entropy: 1, Changes: 5, Claims: 50})
	if got := tr.CNG(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("CNG = %v, want 0.1", got)
	}
}

func TestPREWindow(t *testing.T) {
	tr := NewTracker(3)
	tr.Observe(Observation{PredictionMatched: false, Claims: 10})
	tr.Observe(Observation{PredictionMatched: true, Claims: 10})
	tr.Observe(Observation{PredictionMatched: true, Claims: 10})
	tr.Observe(Observation{PredictionMatched: true, Claims: 10})
	// Window of 3: the initial mismatch has scrolled out.
	if got := tr.PRE(); got != 1 {
		t.Fatalf("PRE = %v, want 1", got)
	}
}

func TestPIR(t *testing.T) {
	tr := NewTracker(5)
	if tr.PIR() != 0 {
		t.Fatal("PIR before estimates should be 0")
	}
	tr.ObserveCV(0.8)
	tr.ObserveCV(0.88)
	if got := tr.PIR(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("PIR = %v, want 0.1", got)
	}
}

func TestShouldStopURR(t *testing.T) {
	tr := NewTracker(5)
	th := Thresholds{URRBelow: 0.05, Consecutive: 3}
	tr.Observe(Observation{Entropy: 10, Claims: 10})
	tr.Observe(Observation{Entropy: 9.9, Claims: 10})
	tr.Observe(Observation{Entropy: 9.85, Claims: 10})
	if tr.ShouldStop(th) {
		t.Fatal("stopped before run length satisfied")
	}
	tr.Observe(Observation{Entropy: 9.8, Claims: 10})
	if !tr.ShouldStop(th) {
		t.Fatal("URR criterion should trigger after 3 slow iterations")
	}
}

func TestShouldStopCNG(t *testing.T) {
	tr := NewTracker(5)
	th := Thresholds{CNGBelow: 0.02, Consecutive: 2}
	tr.Observe(Observation{Entropy: 5, Changes: 10, Claims: 100})
	tr.Observe(Observation{Entropy: 5, Changes: 1, Claims: 100})
	if tr.ShouldStop(th) {
		t.Fatal("one quiet iteration should not stop")
	}
	tr.Observe(Observation{Entropy: 5, Changes: 0, Claims: 100})
	if !tr.ShouldStop(th) {
		t.Fatal("CNG criterion should trigger")
	}
}

func TestShouldStopPRE(t *testing.T) {
	tr := NewTracker(4)
	th := Thresholds{PREAbove: 0.99, Consecutive: 3}
	for i := 0; i < 3; i++ {
		tr.Observe(Observation{Entropy: 5, PredictionMatched: true, Claims: 10})
	}
	if !tr.ShouldStop(th) {
		t.Fatal("PRE criterion should trigger after consistent matches")
	}
	tr.Observe(Observation{Entropy: 5, PredictionMatched: false, Claims: 10})
	if tr.ShouldStop(th) {
		t.Fatal("mismatch must reset the PRE run")
	}
}

func TestShouldStopPIR(t *testing.T) {
	tr := NewTracker(5)
	th := Thresholds{PIRBelow: 0.01}
	tr.Observe(Observation{Entropy: 5, Claims: 10})
	tr.Observe(Observation{Entropy: 5, Claims: 10})
	tr.Observe(Observation{Entropy: 5, Claims: 10})
	tr.ObserveCV(0.9)
	tr.ObserveCV(0.9005)
	if !tr.ShouldStop(th) {
		t.Fatal("PIR criterion should trigger on flat CV precision")
	}
}

func TestShouldStopIgnoresZeroCriteria(t *testing.T) {
	tr := NewTracker(5)
	for i := 0; i < 10; i++ {
		tr.Observe(Observation{Entropy: 1, Changes: 0, Claims: 10, PredictionMatched: true})
	}
	if tr.ShouldStop(Thresholds{}) {
		t.Fatal("zero thresholds must never stop")
	}
}

func TestCrossValidateAccuracy(t *testing.T) {
	corpus := synth.Generate(synth.Wikipedia.Scaled(0.3), 7)
	state := factdb.NewState(corpus.DB.NumClaims)
	e := em.NewEngine(corpus.DB, em.DefaultConfig(), 9)
	e.InferFull(state)
	// Label 60% truthfully.
	for i := 0; i < corpus.DB.NumClaims*3/5; i++ {
		c := corpus.ClaimOrder[i]
		state.SetLabel(c, corpus.Truth[c])
		e.InferIncremental(state)
	}
	a := CrossValidate(e, state, 5, stats.NewRNG(11))
	if a <= 0.5 || a > 1 {
		t.Fatalf("CV precision = %v, want in (0.5, 1]", a)
	}
}

func TestCrossValidateInsufficientLabels(t *testing.T) {
	corpus := synth.Generate(synth.Wikipedia.Scaled(0.1), 13)
	state := factdb.NewState(corpus.DB.NumClaims)
	e := em.NewEngine(corpus.DB, em.DefaultConfig(), 15)
	e.InferFull(state)
	state.SetLabel(0, true)
	if got := CrossValidate(e, state, 5, stats.NewRNG(17)); got != 0 {
		t.Fatalf("CV with one label = %v, want 0", got)
	}
	if got := CrossValidate(e, state, 1, stats.NewRNG(17)); got != 0 {
		t.Fatalf("CV with k=1 = %v, want 0", got)
	}
}

func TestTrackerDefaults(t *testing.T) {
	tr := NewTracker(0)
	if tr.Window != 5 {
		t.Fatalf("default window = %d", tr.Window)
	}
	if tr.Iterations() != 0 {
		t.Fatal("fresh tracker has observations")
	}
}

// Iterations returns the number of observations.
func (t *Tracker) Iterations() int { return len(t.obs) }
