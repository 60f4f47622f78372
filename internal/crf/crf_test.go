package crf

import (
	"math"
	"slices"
	"testing"

	"factcheck/internal/factdb"
	"factcheck/internal/optimize"
	"factcheck/internal/stats"
)

// testDB: two sources, three docs, two claims.
//
//	source 0 (feature 0.9): doc 0 supports claim 0, doc 1 refutes claim 1
//	source 1 (feature 0.1): doc 2 supports claim 1
func testDB(t *testing.T) *factdb.DB {
	t.Helper()
	db := &factdb.DB{NumClaims: 2}
	db.AddSource([]float64{0.9})
	db.AddSource([]float64{0.1})
	db.AddDocument(0, []float64{0.5, 1}, factdb.ClaimRef{Claim: 0, Stance: factdb.Support})
	db.AddDocument(0, []float64{0.2, 0}, factdb.ClaimRef{Claim: 1, Stance: factdb.Refute})
	db.AddDocument(1, []float64{0.8, 1}, factdb.ClaimRef{Claim: 1, Stance: factdb.Support})
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestNewModelDimensions(t *testing.T) {
	db := testDB(t)
	m := New(db)
	// 1 bias + 2 doc features + 1 source feature + 1 trust = 5.
	if m.Dim() != 5 {
		t.Fatalf("Dim = %d, want 5", m.Dim())
	}
	if len(m.Theta) != 5 {
		t.Fatalf("len(Theta) = %d", len(m.Theta))
	}
	for _, w := range m.Theta {
		if w != 0 {
			t.Fatal("initial weights must be zero (max entropy)")
		}
	}
}

func TestCliqueFeaturesLayout(t *testing.T) {
	db := testDB(t)
	m := New(db)
	buf := make([]float64, m.Dim())
	m.CliqueFeatures(db.Rows(), 0, 0.3, buf)
	want := []float64{1, 0.5, 1, 0.9, 0.3}
	for i := range want {
		if math.Abs(buf[i]-want[i]) > 1e-12 {
			t.Fatalf("feature[%d] = %v, want %v (full %v)", i, buf[i], want[i], buf)
		}
	}
}

func TestBaseScoreMatchesFeatures(t *testing.T) {
	db := testDB(t)
	m := New(db)
	theta := []float64{0.5, 1, -1, 2, 3}
	m.SetTheta(theta)
	buf, rows := make([]float64, m.Dim()), db.Rows()
	for ci := range rows.Cliques {
		m.CliqueFeatures(rows, ci, 0, buf)
		want := 0.0
		for i := range buf {
			want += theta[i] * buf[i]
		}
		if got := m.BaseScore(rows, ci); math.Abs(got-want) > 1e-12 {
			t.Fatalf("BaseScore(%d) = %v, want %v", ci, got, want)
		}
	}
	scores := m.BaseScores()
	if len(scores) != len(rows.Cliques) {
		t.Fatal("BaseScores length mismatch")
	}
}

func TestTrustWeight(t *testing.T) {
	db := testDB(t)
	m := New(db)
	m.SetTheta([]float64{0, 0, 0, 0, 7})
	if m.TrustWeight() != 7 {
		t.Fatalf("TrustWeight = %v", m.TrustWeight())
	}
}

func TestSetThetaValidates(t *testing.T) {
	db := testDB(t)
	m := New(db)
	defer func() {
		if recover() == nil {
			t.Fatal("SetTheta with wrong dim did not panic")
		}
	}()
	m.SetTheta([]float64{1})
}

func TestSetThetaCopies(t *testing.T) {
	db := testDB(t)
	m := New(db)
	theta := make([]float64, m.Dim())
	theta[0] = 1
	m.SetTheta(theta)
	theta[0] = 99
	if m.Theta[0] != 1 {
		t.Fatal("SetTheta aliases caller slice")
	}
}

func TestPerCliqueTrustExcludesSelf(t *testing.T) {
	db := testDB(t)
	// With p(c0)=1, p(c1)=0: source 0 has cliques for claims 0 and 1.
	// The trust feature of claim 0's clique must exclude claim 0's own
	// agreement: remaining evidence is the c1 refutation (agree=1 of 1),
	// smoothed (1+2)/(1+3) -> 0.5.
	trust := PerCliqueTrust(db, []float64{1, 0})
	var c0Clique int = -1
	for ci, cl := range db.Rows().Cliques {
		if cl.Claim == 0 && cl.Source == 0 {
			c0Clique = ci
			break
		}
	}
	if c0Clique < 0 {
		t.Fatal("no clique for claim 0 / source 0")
	}
	want := 2*(1+2.0)/(1+3.0) - 1
	if math.Abs(trust[c0Clique]-want) > 1e-12 {
		t.Fatalf("self-excluded trust = %v, want %v", trust[c0Clique], want)
	}
	// A claim must not see its own label through the trust feature: flip
	// p(c0) and claim 0's own trust feature must stay unchanged.
	flipped := PerCliqueTrust(db, []float64{0, 0})
	if math.Abs(flipped[c0Clique]-trust[c0Clique]) > 1e-12 {
		t.Fatalf("trust feature leaked the claim's own value: %v vs %v",
			flipped[c0Clique], trust[c0Clique])
	}
}

func TestExpectedSourceTrustBounds(t *testing.T) {
	db := testDB(t)
	for _, p := range [][]float64{{0, 1}, {1, 1}, {0.3, 0.7}} {
		for ci, v := range PerCliqueTrust(db, p) {
			if v < -1-1e-12 || v > 1+1e-12 {
				t.Fatalf("clique %d trust = %v out of [-1,1] for p=%v", ci, v, p)
			}
		}
	}
}

func TestMStepProblemShapes(t *testing.T) {
	db := testDB(t)
	m := New(db)
	state := factdb.NewState(2)
	state.SetLabel(1, true)
	p := []float64{0.3, 1}
	prob := m.MStepProblem(state, p, 3, 0.1)
	x, _, _ := m.mStepExamples(state, p, 3)
	buf, rows, i := make([]float64, m.Dim()), db.Rows(), 0
	for ci, cl := range rows.Cliques {
		if !state.Labeled(int(cl.Claim)) {
			continue
		}
		m.CliqueFeatures(rows, ci, PerCliqueTrust(db, p)[ci], buf)
		if row := x[i*m.Dim() : (i+1)*m.Dim()]; !slices.Equal(row, buf) {
			t.Fatalf("x[%d] = %v, want clique %d's %v", i, row, ci, buf)
		}
		i++
	}
	if prob.Len() != i || prob.Dim() != m.Dim() {
		t.Fatalf("examples = %d × %d, want %d × %d", prob.Len(), prob.Dim(), i, m.Dim())
	}
}

// TestMStepWeightsAndSoftTargets: the cliques of a labelled claim carry
// the label weight and the claim's soft target as given
// (stance-adjusted, nothing pulled toward 0.5); an unlabelled claim's
// cliques are left out.
func TestMStepWeightsAndSoftTargets(t *testing.T) {
	db := testDB(t)
	m := New(db)
	state := factdb.NewState(2)
	state.SetLabel(1, true)
	p := []float64{1, 0.9}
	// Claim 1's cliques: document 1 refutes it, document 2 supports it.
	if _, y, c := m.mStepExamples(state, p, 4); !slices.Equal(y, []float64{1 - p[1], p[1]}) || !slices.Equal(c, []float64{4, 4}) {
		t.Fatalf("targets %v, weights %v", y, c)
	}
}

func TestMStepLearnsInformativeFeature(t *testing.T) {
	// Construct a DB where doc feature 0 perfectly predicts the
	// (stance-adjusted) target and check the learned weight is positive.
	db := &factdb.DB{NumClaims: 2}
	db.AddSource(nil)
	for i := 0; i < 40; i++ {
		claim := i % 2 // claim 0 credible, claim 1 not
		f := 0.0
		if claim == 0 {
			f = 1.0
		}
		db.AddDocument(0, []float64{f}, factdb.ClaimRef{Claim: claim, Stance: factdb.Support})
	}
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := New(db)
	state := factdb.NewState(2)
	state.SetLabel(0, true)
	state.SetLabel(1, false)
	prob := m.MStepProblem(state, []float64{1, 0}, 1, 0.01)
	res := optimize.Minimize(prob, make([]float64, m.Dim()), optimize.Config{})
	// Feature index 1 is the document feature.
	if res.W[1] <= 0.5 {
		t.Fatalf("doc feature weight = %v, want strongly positive", res.W[1])
	}
}

// TestBaseScoresMatchBaseScore: BaseScores, the table of every clique's
// score, equals the per-clique BaseScore bit for bit on drawn databases
// — clique counts 1 … 9 and a few hundred, document and source
// feature widths 0 … 5 and 11, θ with ±0 entries and feature values
// with ±0 and magnitudes past 1e300.
func TestBaseScoresMatchBaseScore(t *testing.T) {
	r := stats.NewRNG(3)
	draw := func() float64 {
		switch u := r.Float64(); {
		case u < 0.1:
			return math.Copysign(0, -1)
		case u < 0.2:
			return 0
		case u < 0.25:
			return 1e300 * r.NormFloat64()
		}
		return r.NormFloat64()
	}
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = draw()
		}
		return v
	}
	for trial := 0; trial < 400; trial++ {
		mD, mS := r.Intn(6), r.Intn(6)
		if trial%10 == 0 {
			mD, mS = 11, 11-r.Intn(3)
		}
		refs := 1 + r.Intn(9)
		if trial%7 == 0 {
			refs = 200 + r.Intn(200)
		}
		db := &factdb.DB{}
		sources := 1 + r.Intn(4)
		for s := 0; s < sources; s++ {
			db.AddSource(vec(mS))
		}
		// Documents of one to three references each, one claim per
		// reference, until refs cliques.
		for db.NumCliques() < refs {
			var cr []factdb.ClaimRef
			for k := min(1+r.Intn(3), refs-db.NumCliques()); k > 0; k-- {
				cr = append(cr, factdb.ClaimRef{Claim: db.NumClaims, Stance: factdb.Stance(r.Intn(2))})
				db.NumClaims++
			}
			db.AddDocument(r.Intn(sources), vec(mD), cr...)
		}
		if err := db.Finalize(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m := New(db)
		m.SetTheta(vec(m.Dim()))
		got, rows := m.BaseScores(), db.Rows()
		if len(got) != len(rows.Cliques) {
			t.Fatalf("trial %d: %d scores for %d cliques", trial, len(got), len(rows.Cliques))
		}
		for ci := range rows.Cliques {
			if want := m.BaseScore(rows, ci); math.Float64bits(got[ci]) != math.Float64bits(want) {
				t.Fatalf("trial %d: BaseScores[%d] = %v, BaseScore %v", trial, ci, got[ci], want)
			}
		}
	}
}
