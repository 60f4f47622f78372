package factdb

import (
	"encoding/json"
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"factcheck/internal/stats"
)

// tinyDB builds a small well-formed database:
//
//	source 0 -> doc 0 (claims 0+,1−), doc 1 (claim 0+)
//	source 1 -> doc 2 (claim 1+)
//	source 2 -> doc 3 (claim 2+)   (claim 2 is isolated from 0,1)
func tinyDB(t testing.TB) *DB {
	t.Helper()
	db := &DB{NumClaims: 3}
	db.AddSource([]float64{0.9})
	db.AddSource([]float64{0.2})
	db.AddSource([]float64{0.5})
	db.AddDocument(0, []float64{1, 0}, ClaimRef{Claim: 0, Stance: Support}, ClaimRef{Claim: 1, Stance: Refute})
	db.AddDocument(0, []float64{0, 1}, ClaimRef{Claim: 0, Stance: Support})
	db.AddDocument(1, []float64{1, 1}, ClaimRef{Claim: 1, Stance: Support})
	db.AddDocument(2, []float64{0, 0}, ClaimRef{Claim: 2, Stance: Support})
	if err := db.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return db
}

func TestFinalizeBuildsCliques(t *testing.T) {
	db := tinyDB(t)
	if len(db.Rows().Cliques) != 5 {
		t.Fatalf("cliques = %d, want 5", len(db.Rows().Cliques))
	}
	if got := db.Stats(); got.Cliques != 5 || got.Claims != 3 || got.Sources != 3 || got.Documents != 4 {
		t.Fatalf("stats = %+v", got)
	}
	// Claim 0 has two cliques, both from source 0.
	if len(db.Rows().ClaimCliques(0)) != 2 {
		t.Fatalf("claim 0 cliques = %d", len(db.Rows().ClaimCliques(0)))
	}
	for _, ci := range db.Rows().ClaimCliques(0) {
		if db.Rows().Cliques[ci].Claim != 0 {
			t.Fatal("clique index mismatch")
		}
	}
}

func TestFinalizeAdjacency(t *testing.T) {
	db := tinyDB(t)
	if got := db.Rows().ClaimSources(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("claim 0 sources = %v", got)
	}
	if got := db.Rows().ClaimSources(1); len(got) != 2 {
		t.Fatalf("claim 1 sources = %v", got)
	}
	if got := db.Rows().SourceClaims(0); len(got) != 2 {
		t.Fatalf("source 0 claims = %v", got)
	}
}

func TestFinalizeComponents(t *testing.T) {
	db := tinyDB(t)
	if db.NumComponents() != 2 {
		t.Fatalf("components = %d, want 2", db.NumComponents())
	}
	if db.ComponentOf(0) != db.ComponentOf(1) {
		t.Fatal("claims 0 and 1 share source 0, should be one component")
	}
	if db.ComponentOf(2) == db.ComponentOf(0) {
		t.Fatal("claim 2 should be isolated")
	}
	members := db.ComponentMembers(db.ComponentOf(0))
	if len(members) != 2 {
		t.Fatalf("component members = %v", members)
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	db := tinyDB(t)
	n := len(db.Rows().Cliques)
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	if len(db.Rows().Cliques) != n {
		t.Fatal("second Finalize duplicated cliques")
	}
}

func TestFinalizeRejectsBadInput(t *testing.T) {
	// build returns a database of numClaims claims, one feature-less
	// source and whatever add appends.
	build := func(numClaims int, add func(db *DB)) *DB {
		db := &DB{NumClaims: numClaims}
		db.AddSource(nil)
		add(db)
		return db
	}
	cases := map[string]*DB{
		"no claims":  build(0, func(db *DB) { db.AddDocument(0, nil, ClaimRef{Claim: 0}) }),
		"no sources": {NumClaims: 1},
		"bad source ref": build(1, func(db *DB) {
			db.AddDocument(5, nil, ClaimRef{Claim: 0})
		}),
		"bad claim ref": build(1, func(db *DB) {
			db.AddDocument(0, nil, ClaimRef{Claim: 7})
		}),
		// On 64 bits the id's low 32 bits are zero, so a plain int32
		// narrowing would alias claim 0; on 32 bits it is MaxInt32.
		"claim id beyond int32": build(1, func(db *DB) {
			db.AddDocument(0, nil, ClaimRef{Claim: math.MaxInt32 << (bits.UintSize - 32)})
		}),
		"orphan claim": build(2, func(db *DB) {
			db.AddDocument(0, nil, ClaimRef{Claim: 0})
		}),
		"document without references": build(1, func(db *DB) {
			db.AddDocument(0, nil, ClaimRef{Claim: 0})
			db.AddDocument(0, nil)
		}),
		"document without references between two": build(1, func(db *DB) {
			db.AddDocument(0, nil, ClaimRef{Claim: 0})
			db.AddDocument(0, nil)
			db.AddDocument(0, nil, ClaimRef{Claim: 0})
		}),
		"clique of a document past the rows": build(1, func(db *DB) {
			db.AddDocument(0, nil, ClaimRef{Claim: 0})
			db.cliques = append(db.cliques, Clique{Doc: 1})
		}),
		"ragged source features": build(1, func(db *DB) {
			db.AddSource([]float64{1, 2})
			db.AddDocument(0, nil, ClaimRef{Claim: 0})
		}),
		"ragged document features": build(1, func(db *DB) {
			db.AddDocument(0, []float64{1}, ClaimRef{Claim: 0})
			db.AddDocument(0, []float64{1, 2}, ClaimRef{Claim: 0})
		}),
	}
	for name, db := range cases {
		if err := db.Finalize(); err == nil {
			t.Errorf("%s: Finalize accepted invalid database", name)
		}
	}
}

func TestSharedSources(t *testing.T) {
	db := tinyDB(t)
	if got := db.Rows().SharedSources(0, 1); got != 1 {
		t.Fatalf("SharedSources(0,1) = %d, want 1", got)
	}
	if got := db.Rows().SharedSources(0, 2); got != 0 {
		t.Fatalf("SharedSources(0,2) = %d, want 0", got)
	}
	if got := db.Rows().SharedSources(1, 1); got != 2 {
		t.Fatalf("SharedSources(1,1) = %d, want 2", got)
	}
}

func TestStanceSign(t *testing.T) {
	if Support.Sign() != 1 || Refute.Sign() != -1 {
		t.Fatal("stance signs wrong")
	}
	if Support.String() != "support" || Refute.String() != "refute" {
		t.Fatal("stance strings wrong")
	}
}

func TestStateLabels(t *testing.T) {
	s := NewState(4)
	if s.NumLabeled() != 0 || s.Effort() != 0 {
		t.Fatal("fresh state should be unlabelled")
	}
	for c := 0; c < 4; c++ {
		if s.P(c) != 0.5 {
			t.Fatalf("initial P(%d) = %v", c, s.P(c))
		}
	}
	s.SetLabel(1, true)
	s.SetLabel(2, false)
	if s.P(1) != 1 || s.P(2) != 0 {
		t.Fatal("labels must pin probabilities")
	}
	if v, ok := s.Label(1); !ok || !v {
		t.Fatal("Label(1) wrong")
	}
	if _, ok := s.Label(0); ok {
		t.Fatal("Label(0) should report unlabelled")
	}
	if s.NumLabeled() != 2 {
		t.Fatalf("NumLabeled = %d", s.NumLabeled())
	}
	if got := s.Effort(); got != 0.5 {
		t.Fatalf("Effort = %v", got)
	}
	if got := s.Unlabeled(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("Unlabeled = %v", got)
	}
	if got := s.LabeledClaims(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("LabeledClaims = %v", got)
	}
}

func TestStateSetPIgnoredWhenLabeled(t *testing.T) {
	s := NewState(2)
	s.SetLabel(0, true)
	s.SetP(0, 0.3)
	if s.P(0) != 1 {
		t.Fatal("SetP must not override user input")
	}
	s.SetP(1, 0.3)
	if s.P(1) != 0.3 {
		t.Fatal("SetP on unlabelled claim ignored")
	}
}

func TestStateClearLabel(t *testing.T) {
	s := NewState(2)
	s.SetLabel(0, true)
	s.ClearLabel(0)
	if s.Labeled(0) || s.NumLabeled() != 0 {
		t.Fatal("ClearLabel did not remove label")
	}
	if s.P(0) != 0.5 {
		t.Fatalf("cleared P = %v, want 0.5", s.P(0))
	}
	// Clearing twice is harmless.
	s.ClearLabel(0)
	if s.NumLabeled() != 0 {
		t.Fatal("double clear corrupted count")
	}
}

func TestStateRelabelDoesNotDoubleCount(t *testing.T) {
	s := NewState(2)
	s.SetLabel(0, true)
	s.SetLabel(0, false)
	if s.NumLabeled() != 1 {
		t.Fatalf("NumLabeled = %d after relabel", s.NumLabeled())
	}
	if s.P(0) != 0 {
		t.Fatal("relabel should update pinned P")
	}
}

func TestStateCloneIndependent(t *testing.T) {
	s := NewState(3)
	s.SetLabel(0, true)
	s.SetP(1, 0.7)
	c := s.Clone()
	c.SetLabel(2, false)
	c.SetP(1, 0.1)
	if s.Labeled(2) {
		t.Fatal("clone leaked labels into parent")
	}
	if s.P(1) != 0.7 {
		t.Fatal("clone leaked probabilities into parent")
	}
	if c.P(0) != 1 || !c.Labeled(0) {
		t.Fatal("clone lost parent state")
	}
}

func TestGroundingDiffAndPrecision(t *testing.T) {
	g := Grounding{true, false, true}
	h := Grounding{true, true, true}
	if got := g.Diff(h); got != 1 {
		t.Fatalf("Diff = %d", got)
	}
	truth := []bool{true, false, false}
	if got := g.Precision(truth); got != 2.0/3.0 {
		t.Fatalf("Precision = %v", got)
	}
	if got := g.Clone(); &got[0] == &g[0] {
		t.Fatal("Clone aliases memory")
	}
}

func TestPrecisionImprovement(t *testing.T) {
	if got := PrecisionImprovement(0.8, 0.6); got != 0.5000000000000001 && got != 0.5 {
		t.Fatalf("R = %v", got)
	}
	if got := PrecisionImprovement(0.9, 1); got != 0 {
		t.Fatalf("R at p0=1 should be 0, got %v", got)
	}
}

func TestStateEffortProperty(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := stats.NewRNG(seed)
		n := 1 + r.Intn(50)
		s := NewState(n)
		labeled := 0
		for i := 0; i < n; i++ {
			if r.Bernoulli(0.5) {
				s.SetLabel(i, r.Bernoulli(0.5))
				labeled++
			}
		}
		return s.NumLabeled() == labeled &&
			s.Effort() == float64(labeled)/float64(n) &&
			len(s.Unlabeled())+len(s.LabeledClaims()) == n
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComponentMembersCoverAllClaims(t *testing.T) {
	db := tinyDB(t)
	seen := make(map[int32]bool)
	for ci := 0; ci < db.NumComponents(); ci++ {
		for _, m := range db.ComponentMembers(ci) {
			if seen[m] {
				t.Fatalf("claim %d in two components", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != db.NumClaims {
		t.Fatalf("components cover %d of %d claims", len(seen), db.NumClaims)
	}
}

// TestViewsEqualRowsGiven: the feature subslices, DocCliques and
// DocSource of every row equal what the row was built from — for a
// hand-built database, and for the rows an Extend adds (multi-reference
// documents, delta sources) without disturbing the ones before them.
func TestViewsEqualRowsGiven(t *testing.T) {
	type doc struct {
		source   int
		features []float64
		refs     []ClaimRef
	}
	sources := [][]float64{{0.9, 1}, {0.2, 2}, {0.5, 3}}
	docs := []doc{
		{0, []float64{1, 0, 7}, []ClaimRef{{0, Support}, {1, Refute}}},
		{0, []float64{0, 1, 8}, []ClaimRef{{0, Support}}},
		{1, []float64{1, 1, 9}, []ClaimRef{{1, Support}, {2, Refute}, {0, Refute}}},
		{2, []float64{0, 0, 6}, []ClaimRef{{2, Support}}},
	}
	db := &DB{NumClaims: 3}
	for s, f := range sources {
		if got := db.AddSource(f); got != s {
			t.Fatalf("AddSource returned %d, want %d", got, s)
		}
	}
	for d, row := range docs {
		if got := db.AddDocument(row.source, row.features, row.refs...); got != d {
			t.Fatalf("AddDocument returned %d, want %d", got, d)
		}
	}
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		rows := db.Rows()
		if len(db.Sources) != len(sources) || len(db.Documents) != len(docs) {
			t.Fatalf("%s: %d sources, %d documents; want %d, %d", when, len(db.Sources), len(db.Documents), len(sources), len(docs))
		}
		for s, want := range sources {
			if got := rows.SourceFeatures(s); !slices.Equal(got, want) || cap(got) != len(want) {
				t.Errorf("%s: source %d features %v (cap %d), want %v", when, s, got, cap(got), want)
			}
		}
		cliques := 0
		for d, want := range docs {
			if got := rows.DocFeatures(d); !slices.Equal(got, want.features) || cap(got) != len(want.features) {
				t.Errorf("%s: document %d features %v (cap %d), want %v", when, d, got, cap(got), want.features)
			}
			if got := rows.DocSource(d); got != want.source {
				t.Errorf("%s: document %d source %d, want %d", when, d, got, want.source)
			}
			view := rows.DocCliques(d)
			if len(view) != len(want.refs) || cap(view) != len(view) {
				t.Fatalf("%s: document %d has %d cliques (cap %d), want %d", when, d, len(view), cap(view), len(want.refs))
			}
			for i, ref := range want.refs {
				if want := (Clique{Claim: int32(ref.Claim), Doc: int32(d), Source: int32(docs[d].source), Stance: ref.Stance}); view[i] != want {
					t.Errorf("%s: document %d clique %d = %+v, want %+v", when, d, i, view[i], want)
				}
			}
			cliques += len(view)
		}
		if cliques != len(rows.Cliques) {
			t.Errorf("%s: views cover %d cliques of %d", when, cliques, len(rows.Cliques))
		}
	}
	check("built")

	// One delta source, one new claim; a three-reference document from
	// the delta source and a two-reference one from an existing source.
	delta := Delta{
		NewClaims: 1,
		Sources:   []DeltaSource{{Features: []float64{0.7, 4}}},
		Documents: []DeltaDocument{
			{Source: -1, Features: []float64{2, 2, 5}, Refs: []DeltaRef{{Claim: -1, Stance: Support}, {Claim: 0, Stance: Refute}, {Claim: 2, Stance: Support}}},
			{Source: 1, Features: []float64{3, 3, 4}, Refs: []DeltaRef{{Claim: 1, Stance: Refute}, {Claim: -1, Stance: Refute}}},
		},
	}
	if _, err := db.Extend(delta); err != nil {
		t.Fatal(err)
	}
	sources = append(sources, []float64{0.7, 4})
	docs = append(docs,
		doc{3, []float64{2, 2, 5}, []ClaimRef{{3, Support}, {0, Refute}, {2, Support}}},
		doc{1, []float64{3, 3, 4}, []ClaimRef{{1, Refute}, {3, Refute}}},
	)
	check("extended")
	// Exact-length growth: an ingest leaves no slack behind in the
	// tables (TestIndexesAreFlat holds the indexes to the same).
	for _, tab := range []struct {
		name     string
		len, cap int
	}{
		{"cliques", len(db.Rows().Cliques), cap(db.Rows().Cliques)},
		{"documents", len(db.Documents), cap(db.Documents)},
		{"source features", len(db.srcFeat), cap(db.srcFeat)},
		{"document features", len(db.docFeat), cap(db.docFeat)},
		{"componentOf", len(db.componentOf), cap(db.componentOf)},
	} {
		if tab.cap != tab.len {
			t.Errorf("%s: slack after Extend (len %d, cap %d)", tab.name, tab.len, tab.cap)
		}
	}
}

// TestFromTablesRejectsBadTables: a generator's tables are checked like
// hand-built rows are.
func TestFromTablesRejectsBadTables(t *testing.T) {
	q := func(claim, doc, source int32) Clique { return Clique{Claim: claim, Doc: doc, Source: source} }
	cases := map[string]struct {
		claims, sources  int
		srcFeat, docFeat []float64
		cliques          []Clique
	}{
		"no cliques":            {1, 1, nil, nil, nil},
		"no sources":            {1, 0, nil, nil, []Clique{q(0, 0, 0)}},
		"ragged source table":   {1, 2, []float64{1, 2, 3}, nil, []Clique{q(0, 0, 0)}},
		"ragged document table": {1, 1, nil, []float64{1, 2, 3}, []Clique{q(0, 0, 0), q(0, 1, 0)}},
		"document skipped":      {1, 1, nil, nil, []Clique{q(0, 0, 0), q(0, 2, 0)}},
		"documents descending":  {1, 1, nil, nil, []Clique{q(0, 1, 0), q(0, 0, 0)}},
		"first document not 0":  {1, 1, nil, nil, []Clique{q(0, -1, 0), q(0, 0, 0)}},
		"two publishers":        {1, 2, nil, nil, []Clique{q(0, 0, 0), q(0, 0, 1)}},
		"unknown source":        {1, 1, nil, nil, []Clique{q(0, 0, 3)}},
		"unknown claim":         {1, 1, nil, nil, []Clique{q(5, 0, 0)}},
		"orphan claim":          {2, 1, nil, nil, []Clique{q(0, 0, 0)}},
	}
	for name, tc := range cases {
		if _, err := FromTables(tc.claims, tc.sources, tc.srcFeat, tc.docFeat, tc.cliques); err == nil {
			t.Errorf("%s: FromTables accepted invalid tables", name)
		}
	}
	db, err := FromTables(2, 2, []float64{1, 2}, []float64{3, 4, 5, 6}, []Clique{q(0, 0, 1), q(1, 0, 1), q(1, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if db.SourceFeatureDim() != 1 || db.DocFeatureDim() != 2 || len(db.Documents) != 2 || len(db.Rows().DocCliques(0)) != 2 || db.Rows().DocSource(1) != 0 {
		t.Fatalf("well-formed tables misread: %+v", db.Stats())
	}
}

// ClearLabel removes the user input for claim c, returning it to C_U with
// a maximum-entropy probability.
func (s *State) ClearLabel(c int) {
	if s.labeled[c] {
		s.nLabels--
	}
	s.labeled[c] = false
	s.p[c] = 0.5
}

// TestIndexesAreFlat: each adjacency index is two exact-size int32
// arrays and nothing else — 4·(rows+1) bytes of offsets and 4 bytes an
// entry — after Finalize and after every Extend, so neither a slice
// header per row nor append slack can come back unnoticed. Entries are
// counted from the clique list: one per clique, and one per distinct
// (claim, source) pair in each direction.
func TestIndexesAreFlat(t *testing.T) {
	check := func(when string, db *DB) {
		t.Helper()
		pairs := make(map[[2]int32]bool)
		for _, q := range db.Rows().Cliques {
			pairs[[2]int32{q.Claim, q.Source}] = true
		}
		for _, ix := range []struct {
			name          string
			x             csr
			rows, entries int
		}{
			{"ClaimCliques", db.ix.claimCliques, db.NumClaims, len(db.Rows().Cliques)},
			{"SourceClaims", db.ix.sourceClaims, len(db.Sources), len(pairs)},
			{"ClaimSources", db.ix.claimSources, db.NumClaims, len(pairs)},
		} {
			if len(ix.x.off) != cap(ix.x.off) || len(ix.x.data) != cap(ix.x.data) {
				t.Errorf("%s: %s has slack (offsets %d/%d, entries %d/%d)", when, ix.name,
					len(ix.x.off), cap(ix.x.off), len(ix.x.data), cap(ix.x.data))
			}
			if got, want := 4*(cap(ix.x.off)+cap(ix.x.data)), 4*(ix.rows+1)+4*ix.entries; got != want {
				t.Errorf("%s: %s holds %d bytes, want %d", when, ix.name, got, want)
			}
		}
	}
	db := tinyDB(t)
	check("finalized", db)
	for _, name := range wellFormedSeeds {
		var d Delta
		if err := json.Unmarshal([]byte(deltaSeeds[name]), &d); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Extend(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check("after "+name, db)
	}
}
