package em

import (
	"errors"
	"math"
	"testing"

	"factcheck/internal/factdb"
	"factcheck/internal/wire"
)

// TestEngineImageResumesInference: an engine built fresh over the same
// database and given another engine's image infers, grounds and answers
// what-if questions exactly like it from there on.
func TestEngineImageResumesInference(t *testing.T) {
	db, truth := featureDB(t, 40, 3, 0.4, 3)
	cfg := DefaultConfig()
	state := factdb.NewState(db.NumClaims)
	for c := 0; c < 6; c++ {
		state.SetLabel(c, truth[c])
	}
	a := NewEngine(db, cfg, 11)
	a.InferFull(state)

	r := wire.NewReader(a.AppendImage(nil))
	img := ReadEngineImage(r, db.NumClaims, a.Model().Dim(), cfg)
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("read: err %v, %d bytes left", r.Err(), r.Len())
	}
	b := NewEngine(db, cfg, 999)
	b.InstallImage(img)
	stateB := state.Clone()
	if ga, gb := a.Grounding(state), b.Grounding(stateB); ga.Diff(gb) != 0 {
		t.Fatal("groundings from the installed Ω* differ")
	}

	state.SetLabel(20, truth[20])
	stateB.SetLabel(20, truth[20])
	if !a.InferComponent(state, db.ComponentOf(20), 5) || !b.InferComponent(stateB, db.ComponentOf(20), 5) {
		t.Fatal("component refresh refused on an initialised engine")
	}
	state.SetLabel(21, truth[21])
	stateB.SetLabel(21, truth[21])
	a.InferIncremental(state)
	b.InferIncremental(stateB)
	for c := 0; c < db.NumClaims; c++ {
		if math.Float64bits(state.P(c)) != math.Float64bits(stateB.P(c)) {
			t.Fatalf("P(%d) after the image: %v vs %v", c, state.P(c), stateB.P(c))
		}
	}
	for i, th := range a.Theta() {
		if math.Float64bits(th) != math.Float64bits(b.Theta()[i]) {
			t.Fatalf("θ[%d] after the image: %v vs %v", i, th, b.Theta()[i])
		}
	}
	ha := a.Hypothetical(workers(a, 1)[0], 30, true)
	hb := b.Hypothetical(workers(b, 1)[0], 30, true)
	for i := range ha.Marginals {
		if ha.Marginals[i] != hb.Marginals[i] {
			t.Fatalf("what-if marginal %d after the image: %v vs %v", i, ha.Marginals[i], hb.Marginals[i])
		}
	}
}

// TestEngineImageBeforeInference: an engine that has not inferred yet
// has no Ω*; its image says so and installs as such.
func TestEngineImageBeforeInference(t *testing.T) {
	db, _ := featureDB(t, 10, 2, 0.4, 4)
	cfg := DefaultConfig()
	a := NewEngine(db, cfg, 1)
	r := wire.NewReader(a.AppendImage(nil))
	img := ReadEngineImage(r, db.NumClaims, a.Model().Dim(), cfg)
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("read: err %v, %d bytes left", r.Err(), r.Len())
	}
	b := NewEngine(db, cfg, 2)
	b.InstallImage(img)
	if b.LastSamples() != nil {
		t.Fatal("an engine restored from before its first inference holds samples")
	}
	if b.InferComponent(factdb.NewState(db.NumClaims), 0, 1) {
		t.Fatal("component refresh ran on an engine with nothing to patch")
	}
}

func TestEngineImageRefuses(t *testing.T) {
	db, _ := featureDB(t, 10, 2, 0.4, 5)
	cfg := DefaultConfig()
	e := NewEngine(db, cfg, 1)
	e.InferFull(factdb.NewState(db.NumClaims))
	img := e.AppendImage(nil)
	dim := e.Model().Dim()

	nan := append([]byte(nil), img...)
	copy(nan, wire.AppendF64(nil, math.NaN()))
	inf := append([]byte(nil), img...)
	copy(inf, wire.AppendF64(nil, math.Inf(1)))
	small := cfg
	small.Samples, small.IncSamples = 3, 2 // Ω* of 60 samples is over this budget
	for _, tc := range []struct {
		name string
		img  []byte
		cfg  Config
		want error
	}{
		{"NaN θ", nan, cfg, wire.ErrValue},
		{"infinite θ", inf, cfg, wire.ErrValue},
		{"more samples than the budgets allow", img, small, wire.ErrValue},
		{"truncated", img[:len(img)/2], cfg, wire.ErrShort},
	} {
		r := wire.NewReader(tc.img)
		ReadEngineImage(r, db.NumClaims, dim, tc.cfg)
		if !errors.Is(r.Err(), tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, r.Err(), tc.want)
		}
	}
}
