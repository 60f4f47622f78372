package factdb_test

import (
	"fmt"
	"testing"

	"factcheck/internal/factdb"
	"factcheck/internal/service"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// randomHandBuilt builds a small database row by row: sources that cite
// nothing, documents that reference one claim twice and with both
// stances, claims spread over several sources.
func randomHandBuilt(r *stats.RNG) *factdb.DB {
	nSrc, nClaims := 1+r.Intn(6), 1+r.Intn(8)
	db := &factdb.DB{NumClaims: nClaims}
	for range nSrc {
		db.AddSource([]float64{r.NormFloat64()})
	}
	refs := func(first int) []factdb.ClaimRef {
		out := []factdb.ClaimRef{{Claim: first, Stance: factdb.Stance(r.Intn(2))}}
		for range r.Intn(4) {
			out = append(out, factdb.ClaimRef{Claim: r.Intn(nClaims), Stance: factdb.Stance(r.Intn(2))})
		}
		return out
	}
	for c := range nClaims {
		db.AddDocument(r.Intn(nSrc), []float64{r.NormFloat64()}, refs(c)...)
	}
	for range r.Intn(10) {
		db.AddDocument(r.Intn(nSrc), []float64{r.NormFloat64()}, refs(r.Intn(nClaims))...)
	}
	if err := db.Finalize(); err != nil {
		panic(err)
	}
	return db
}

// randomDelta draws a delta against db's shape: new sources and claims,
// documents on old and new sources referencing old and new claims,
// repeats included.
func randomDelta(r *stats.RNG, db *factdb.DB) factdb.Delta {
	st := db.Stats()
	d := factdb.Delta{NewClaims: r.Intn(3)}
	for range r.Intn(3) {
		d.Sources = append(d.Sources, factdb.DeltaSource{Features: []float64{r.NormFloat64()}})
	}
	source := func() int {
		if len(d.Sources) > 0 && r.Bernoulli(0.5) {
			return -1 - r.Intn(len(d.Sources))
		}
		return r.Intn(st.Sources)
	}
	claim := func() int {
		if d.NewClaims > 0 && r.Bernoulli(0.5) {
			return -1 - r.Intn(d.NewClaims)
		}
		return r.Intn(st.Claims)
	}
	doc := func(first int) factdb.DeltaDocument {
		out := factdb.DeltaDocument{Source: source(), Features: []float64{r.NormFloat64()},
			Refs: []factdb.DeltaRef{{Claim: first, Stance: factdb.Stance(r.Intn(2))}}}
		for range r.Intn(3) {
			out.Refs = append(out.Refs, factdb.DeltaRef{Claim: claim(), Stance: factdb.Stance(r.Intn(2))})
		}
		return out
	}
	for j := range d.NewClaims {
		d.Documents = append(d.Documents, doc(-1-j))
	}
	for range r.Intn(4) {
		d.Documents = append(d.Documents, doc(claim()))
	}
	return d
}

// extendAndDiff applies d to db and fails on the first row or component
// db then disagrees with a reference built over its new clique list on.
func extendAndDiff(t *testing.T, db *factdb.DB, d factdb.Delta, what string) {
	t.Helper()
	if _, err := db.Extend(d); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := factdb.NewReference(db).Diff(db); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestIndexesMatchReference holds the flat indexes to the per-row
// layout they replaced (factdb.Reference): every row of ClaimCliques,
// SourceClaims and ClaimSources, and every claim's component, members
// and sources, equal the reference's after Finalize and after each
// Extend —
// on random hand-built databases under random deltas, on the corpora of
// the four benchmark workloads' open requests (TestCorpusIdentity's,
// two seeds each), and along a chain of 30 streamed deltas on each.
func TestIndexesMatchReference(t *testing.T) {
	for seed := range int64(200) {
		r := stats.NewRNG(seed)
		db := randomHandBuilt(r)
		if err := factdb.NewReference(db).Diff(db); err != nil {
			t.Fatalf("hand-built seed %d: %v", seed, err)
		}
		for i := range 6 {
			extendAndDiff(t, db, randomDelta(r, db), fmt.Sprintf("hand-built seed %d, delta %d", seed, i))
		}
	}

	requests := []struct {
		name string
		req  service.OpenRequest
	}{
		{"guided-connected", service.OpenRequest{Profile: "wiki"}},
		{"guided-incremental", service.OpenRequest{Profile: "wiki", Scale: 2, Communities: 12, FullSweepEvery: 16}},
		{"streaming-ingest", service.OpenRequest{Profile: "wiki", Communities: 12, FullSweepEvery: 16, CandidatePool: 16}},
		{"fleet-churn", service.OpenRequest{Profile: "wiki", Scale: 0.5, Communities: 4, Strategy: "uncertainty"}},
	}
	deltas := 30
	if testing.Short() {
		deltas = 3
	}
	for _, tc := range requests {
		for _, seed := range []int64{7, 1 << 40} {
			req := tc.req
			req.Seed = seed
			c, err := service.BuildCorpus(req)
			if err != nil {
				t.Fatal(err)
			}
			if err := factdb.NewReference(c.DB).Diff(c.DB); err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			if seed != 7 {
				continue
			}
			shape, err := synth.ByName(req.Profile)
			if err != nil {
				t.Fatal(err)
			}
			for i := range deltas {
				d := synth.GenerateDelta(shape.At(c.DB.Stats()), 0.02, stats.StreamSeed(uint64(seed), uint64(i)))
				extendAndDiff(t, c.DB, d, fmt.Sprintf("%s seed %d, delta %d", tc.name, seed, i))
			}
		}
	}
}
