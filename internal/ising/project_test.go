package ising

import (
	"math"
	"testing"

	"factcheck/internal/crf"
	"factcheck/internal/entropy"
	"factcheck/internal/factdb"
	"factcheck/internal/stats"
)

// pairDB: one source with two supported claims (coupled through trust),
// plus one isolated source/claim.
func pairDB(t *testing.T) *factdb.DB {
	t.Helper()
	db := &factdb.DB{NumClaims: 3}
	db.AddSource(nil)
	db.AddSource(nil)
	db.AddDocument(0, nil, factdb.ClaimRef{Claim: 0, Stance: factdb.Support})
	db.AddDocument(0, nil, factdb.ClaimRef{Claim: 1, Stance: factdb.Support})
	db.AddDocument(1, nil, factdb.ClaimRef{Claim: 2, Stance: factdb.Support})
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestProjectNoCouplingMatchesIndependentEntropy(t *testing.T) {
	db := pairDB(t)
	m := crf.New(db)
	theta := make([]float64, m.Dim())
	theta[0] = 0.8 // bias only; trust weight zero
	m.SetTheta(theta)
	state := factdb.NewState(db.NumClaims)
	h, exact := Exact(m, state)
	if !exact {
		t.Fatal("independent model should be exact")
	}
	p := stats.Sigmoid(crf.OddsGain * 0.8)
	want := 3 * stats.BinaryEntropy(p)
	if math.Abs(h-want) > 1e-9 {
		t.Fatalf("Exact = %v, want %v", h, want)
	}
}

func TestProjectCouplingCreatesEdges(t *testing.T) {
	db := pairDB(t)
	m := crf.New(db)
	theta := make([]float64, m.Dim())
	theta[len(theta)-1] = 1.5 // trust coupling
	m.SetTheta(theta)
	state := factdb.NewState(db.NumClaims)
	mrf := Project(m, state)
	if len(mrf.Edges) != 1 {
		t.Fatalf("edges = %d, want 1 (claims 0-1 share source 0)", len(mrf.Edges))
	}
	if mrf.Edges[0].W <= 0 {
		t.Fatalf("same-stance coupling should be positive, got %v", mrf.Edges[0].W)
	}
}

func TestProjectOpposingStancesCoupleNegatively(t *testing.T) {
	db := &factdb.DB{NumClaims: 2}
	db.AddSource(nil)
	db.AddDocument(0, nil, factdb.ClaimRef{Claim: 0, Stance: factdb.Support})
	db.AddDocument(0, nil, factdb.ClaimRef{Claim: 1, Stance: factdb.Refute})
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := crf.New(db)
	theta := make([]float64, m.Dim())
	theta[len(theta)-1] = 2
	m.SetTheta(theta)
	mrf := Project(m, factdb.NewState(2))
	if len(mrf.Edges) != 1 || mrf.Edges[0].W >= 0 {
		t.Fatalf("opposing stances should couple negatively: %+v", mrf.Edges)
	}
}

func TestProjectFoldsLabelledNeighbours(t *testing.T) {
	db := pairDB(t)
	m := crf.New(db)
	theta := make([]float64, m.Dim())
	theta[len(theta)-1] = 1.5
	m.SetTheta(theta)
	state := factdb.NewState(db.NumClaims)
	state.SetLabel(0, true)
	mrf := Project(m, state)
	// Two unlabelled claims remain; the coupling to the labelled claim
	// folds into claim 1's field as a positive shift.
	if len(mrf.Theta) != 2 {
		t.Fatalf("nodes = %d, want 2", len(mrf.Theta))
	}
	if len(mrf.Edges) != 0 {
		t.Fatalf("no unlabelled pairs share a source, edges = %v", mrf.Edges)
	}
	if mrf.Theta[0] <= 0 {
		t.Fatalf("claim 1's field should be lifted by the credible label, got %v", mrf.Theta[0])
	}
	// Labelling false should push the field the other way.
	state2 := factdb.NewState(db.NumClaims)
	state2.SetLabel(0, false)
	mrf2 := Project(m, state2)
	if mrf2.Theta[0] >= 0 {
		t.Fatalf("claim 1's field should drop under a non-credible label, got %v", mrf2.Theta[0])
	}
}

func TestExactBoundedByMaxEntropy(t *testing.T) {
	db := pairDB(t)
	m := crf.New(db)
	theta := make([]float64, m.Dim())
	theta[0] = 0.4
	theta[len(theta)-1] = 0.7
	m.SetTheta(theta)
	state := factdb.NewState(db.NumClaims)
	h, _ := Exact(m, state)
	if h < 0 || h > 3*math.Log(2)+1e-9 {
		t.Fatalf("Exact entropy = %v out of bounds", h)
	}
}

func TestExactVersusApproxOnIndependentModel(t *testing.T) {
	// With zero trust coupling the exact and approximate measures agree
	// once the approximate probabilities equal the unary sigmoids.
	db := pairDB(t)
	m := crf.New(db)
	theta := make([]float64, m.Dim())
	theta[0] = -0.6
	m.SetTheta(theta)
	state := factdb.NewState(db.NumClaims)
	p := stats.Sigmoid(crf.OddsGain * -0.6)
	for c := 0; c < 3; c++ {
		state.SetP(c, p)
	}
	hApprox := entropy.Approx(state)
	hExact, _ := Exact(m, state)
	if math.Abs(hApprox-hExact) > 1e-9 {
		t.Fatalf("approx %v != exact %v on independent model", hApprox, hExact)
	}
}
