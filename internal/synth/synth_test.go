package synth

import (
	"math"
	"slices"
	"testing"

	"factcheck/internal/em"
	"factcheck/internal/factdb"
	"factcheck/internal/stats"
)

func TestGenerateDeterministic(t *testing.T) {
	p := Wikipedia.Scaled(0.2)
	a := Generate(p, 42)
	b := Generate(p, 42)
	if a.DB.Stats() != b.DB.Stats() {
		t.Fatalf("stats differ: %v vs %v", a.DB.Stats(), b.DB.Stats())
	}
	for c := range a.Truth {
		if a.Truth[c] != b.Truth[c] {
			t.Fatal("truth differs across identical seeds")
		}
	}
	if !slices.Equal(a.DB.Rows().Cliques, b.DB.Rows().Cliques) {
		t.Fatal("documents differ across identical seeds")
	}
	c := Generate(p, 43)
	if slices.Equal(a.DB.Rows().Cliques, c.DB.Rows().Cliques) {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestGenerateMatchesProfileSizes(t *testing.T) {
	for _, p := range []Profile{Wikipedia.Scaled(0.1), Health.Scaled(0.01), Snopes.Scaled(0.01)} {
		c := Generate(p, 1)
		st := c.DB.Stats()
		if st.Sources != p.Sources || st.Documents != p.Documents || st.Claims != p.Claims {
			t.Fatalf("%s: stats %v do not match profile %+v", p.Name, st, p)
		}
		if len(c.Truth) != p.Claims || len(c.SourceTrust) != p.Sources {
			t.Fatal("latent vectors wrong length")
		}
		if len(c.ClaimOrder) != p.Claims {
			t.Fatal("claim order wrong length")
		}
	}
}

func TestPublishedProfileSizes(t *testing.T) {
	// The §8.1 corpus sizes, verbatim.
	cases := []struct {
		p                 Profile
		src, docs, claims int
	}{
		{Wikipedia, 1955, 3228, 157},
		{Health, 11206, 48083, 529},
		{Snopes, 23260, 80421, 4856},
	}
	for _, tc := range cases {
		if tc.p.Sources != tc.src || tc.p.Documents != tc.docs || tc.p.Claims != tc.claims {
			t.Fatalf("%s profile sizes drifted: %+v", tc.p.Name, tc.p)
		}
	}
}

func TestClaimOrderIsPermutation(t *testing.T) {
	c := Generate(Wikipedia.Scaled(0.3), 7)
	seen := make([]bool, len(c.ClaimOrder))
	for _, id := range c.ClaimOrder {
		if id < 0 || id >= len(seen) || seen[id] {
			t.Fatalf("ClaimOrder not a permutation at %d", id)
		}
		seen[id] = true
	}
}

func TestScaledBounds(t *testing.T) {
	q := Snopes.Scaled(0.0001)
	if q.Claims < 8 || q.Sources < 5 || q.Documents < 2*q.Claims {
		t.Fatalf("scaled profile below floors: %+v", q)
	}
	if Wikipedia.Scaled(1).Name != "wiki" {
		t.Fatal("unit scale should keep the name")
	}
	if q.Name == "snopes" {
		t.Fatal("scaled profile should be renamed")
	}
}

func TestScaledPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scaled(0) did not panic")
		}
	}()
	Wikipedia.Scaled(0)
}

func TestByName(t *testing.T) {
	for _, name := range []string{"wiki", "health", "snopes"} {
		p, err := ByName(name)
		if err != nil || p.Name != name {
			t.Fatalf("ByName(%q) = %+v, %v", name, p, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName should reject unknown profiles")
	}
}

func TestStanceCorrelatesWithTrustAndTruth(t *testing.T) {
	c := Generate(Wikipedia.Scaled(0.5), 11)
	// Documents of high-trust sources should carry the correct stance
	// far more often than those of low-trust sources.
	var hiCorrect, hiTotal, loCorrect, loTotal float64
	for _, q := range c.DB.Rows().Cliques { // one per document
		correct := (q.Stance == factdb.Support) == c.Truth[q.Claim]
		if c.SourceTrust[q.Source] > 0.75 {
			hiTotal++
			if correct {
				hiCorrect++
			}
		} else if c.SourceTrust[q.Source] < 0.5 {
			loTotal++
			if correct {
				loCorrect++
			}
		}
	}
	if hiTotal < 10 || loTotal < 10 {
		t.Skip("not enough mass in trust tails for this seed")
	}
	hi, lo := hiCorrect/hiTotal, loCorrect/loTotal
	if hi <= lo+0.1 {
		t.Fatalf("stance correctness: high-trust %v vs low-trust %v", hi, lo)
	}
}

func TestDocFeaturesInformative(t *testing.T) {
	c := Generate(Wikipedia.Scaled(0.5), 13)
	// The first (strongest) document feature must separate correct from
	// incorrect stances after standardisation.
	var mc, mi float64
	var nc, ni int
	rows := c.DB.Rows()
	for _, q := range rows.Cliques { // one per document
		correct := (q.Stance == factdb.Support) == c.Truth[q.Claim]
		if correct {
			mc += rows.DocFeatures(int(q.Doc))[0]
			nc++
		} else {
			mi += rows.DocFeatures(int(q.Doc))[0]
			ni++
		}
	}
	if nc == 0 || ni == 0 {
		t.Skip("degenerate stance split")
	}
	mc /= float64(nc)
	mi /= float64(ni)
	if mc-mi < 0.5 {
		t.Fatalf("feature separation = %v, want informative channel", mc-mi)
	}
}

func TestSourceFeaturesCorrelateWithTrust(t *testing.T) {
	c := Generate(Snopes.Scaled(0.02), 17)
	// The direct probe channel (index 3) must correlate with latent trust.
	probe, rows := make([]float64, len(c.SourceTrust)), c.DB.Rows()
	for s := range probe {
		probe[s] = rows.SourceFeatures(s)[3]
	}
	r := stats.Pearson(probe, c.SourceTrust)
	if r < 0.3 {
		t.Fatalf("probe correlation with trust = %v", r)
	}
}

func TestFeatureStandardisation(t *testing.T) {
	c := Generate(Health.Scaled(0.02), 19)
	// Document features should be approximately centred.
	d := c.DB.DocFeatureDim()
	sums, rows := make([]float64, d), c.DB.Rows()
	for doc := range c.DB.Documents {
		for j, f := range rows.DocFeatures(doc) {
			sums[j] += f
		}
	}
	for j := range sums {
		if m := sums[j] / float64(len(c.DB.Documents)); math.Abs(m) > 0.05 {
			t.Fatalf("doc feature %d mean = %v after standardisation", j, m)
		}
	}
}

func TestCorpusLearnable(t *testing.T) {
	// End-to-end: on a small wiki corpus, labelling 40% of claims should
	// lift grounding precision well above the no-input baseline.
	c := Generate(Wikipedia.Scaled(0.35), 23)
	n := c.DB.NumClaims
	state := factdb.NewState(n)
	e := em.NewEngine(c.DB, em.DefaultConfig(), 5)
	e.InferFull(state)
	p0 := e.Grounding(state).Precision(c.Truth)
	for i := 0; i < n*2/5; i++ {
		cID := c.ClaimOrder[i]
		state.SetLabel(cID, c.Truth[cID])
		e.InferIncremental(state)
	}
	p1 := e.Grounding(state).Precision(c.Truth)
	if p1 < p0+0.1 {
		t.Fatalf("labels did not help: %v -> %v", p0, p1)
	}
	if p1 < 0.7 {
		t.Fatalf("precision after 40%% labels = %v, want >= 0.7", p1)
	}
}

func TestZipfDegreeSkew(t *testing.T) {
	c := Generate(Snopes.Scaled(0.02), 29)
	counts, rows := make([]int, len(c.DB.Sources)), c.DB.Rows()
	for d := range c.DB.Documents {
		counts[rows.DocSource(d)]++
	}
	maxC, sum := 0, 0
	for _, n := range counts {
		sum += n
		if n > maxC {
			maxC = n
		}
	}
	mean := float64(sum) / float64(len(counts))
	if float64(maxC) < 5*mean {
		t.Fatalf("source degrees not skewed: max %d vs mean %v", maxC, mean)
	}
}
