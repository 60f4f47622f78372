package factdb

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// deltaSeeds are JSON deltas against tinyDB (3 claims, 3 sources,
// mS = 1, mD = 2): the shapes DeltaAt has to get right, and the ones
// Validate has to refuse without being hurt. They are the fuzz seed
// corpus and, applied one after the other, TestDeltaAtInvertsExtend's
// table.
var deltaSeeds = map[string]string{
	"empty":           `{}`,
	"fresh":           `{"newClaims":1,"sources":[{"features":[0.7]}],"documents":[{"source":-1,"features":[1,0],"refs":[{"claim":-1}]}],"truth":[true]}`,
	"multi-reference": `{"newClaims":2,"sources":[{"features":[0.25]}],"documents":[{"source":-1,"features":[1,0],"refs":[{"claim":0},{"claim":-1,"stance":1},{"claim":-2},{"claim":2,"stance":1},{"claim":0,"stance":1}]}],"truth":[true,false]}`,
	"existing-source": `{"newClaims":1,"documents":[{"source":2,"features":[0.5,-0],"refs":[{"claim":-1}]},{"source":0,"features":[1e-300,3],"refs":[{"claim":1,"stance":1}]}]}`,
	"unused-source":   `{"sources":[{"features":[0.1]},{"features":[0.9]}],"documents":[{"source":-2,"features":[0,1],"refs":[{"claim":2}]}]}`,
	"sources-only":    `{"sources":[{"features":[0.3]}]}`,
	"stance-zero":     `{"documents":[{"source":1,"features":[0,0],"refs":[{"claim":1,"stance":0}]}]}`,
	"both-edges":      `{"newClaims":2,"sources":[{"features":[0]},{"features":[1]}],"documents":[{"source":-2,"features":[0,0],"refs":[{"claim":2},{"claim":-2}]},{"source":2,"features":[1,1],"refs":[{"claim":0},{"claim":-1}]}]}`,

	"claim-past-edge":       `{"documents":[{"source":0,"features":[0,0],"refs":[{"claim":3}]}]}`,
	"new-claim-past-edge":   `{"newClaims":2,"documents":[{"source":0,"features":[0,0],"refs":[{"claim":-1},{"claim":-2},{"claim":-3}]}]}`,
	"source-past-edge":      `{"documents":[{"source":3,"features":[0,0],"refs":[{"claim":0}]}]}`,
	"new-source-past-edge":  `{"sources":[{"features":[1]}],"documents":[{"source":-2,"features":[0,0],"refs":[{"claim":0}]}]}`,
	"min-int":               `{"documents":[{"source":-9223372036854775808,"features":[0,0],"refs":[{"claim":-9223372036854775808}]}]}`,
	"claims-by-the-billion": `{"newClaims":4611686018427387904,"documents":[{"source":0,"features":[0,0],"refs":[{"claim":-1}]}]}`,
	"stance-two":            `{"documents":[{"source":0,"features":[0,0],"refs":[{"claim":0,"stance":2}]}]}`,
	"no-references":         `{"documents":[{"source":0,"features":[0,0],"refs":[]}]}`,
}

// wellFormedSeeds are the seeds that apply to tinyDB, in an order in
// which each still applies after the ones before it.
var wellFormedSeeds = []string{
	"empty", "fresh", "multi-reference", "existing-source", "unused-source", "sources-only", "stance-zero", "both-edges",
}

func seedNames() []string {
	names := make([]string, 0, len(deltaSeeds))
	for name := range deltaSeeds {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// sameDelta reports whether two deltas agree field for field, floats by
// bit pattern (so −0 and 0 differ), an absent list equal to an empty
// one. That is at least what a transcript digest and a WAL line see.
func sameDelta(a, b Delta) bool {
	floats := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if a.NewClaims != b.NewClaims || len(a.Sources) != len(b.Sources) || len(a.Documents) != len(b.Documents) ||
		len(a.Truth) != len(b.Truth) {
		return false
	}
	for i := range a.Truth {
		if a.Truth[i] != b.Truth[i] {
			return false
		}
	}
	for i := range a.Sources {
		if !floats(a.Sources[i].Features, b.Sources[i].Features) {
			return false
		}
	}
	for i, x := range a.Documents {
		y := b.Documents[i]
		if x.Source != y.Source || !floats(x.Features, y.Features) || len(x.Refs) != len(y.Refs) {
			return false
		}
		for j := range x.Refs {
			if x.Refs[j] != y.Refs[j] {
				return false
			}
		}
	}
	return true
}

// checkRebuilt asserts that got, rebuilt by DeltaAt, stands in for the
// applied delta want everywhere a delta is read: field for field, and
// byte for byte once encoded.
func checkRebuilt(t *testing.T, got, want Delta) {
	t.Helper()
	got.Truth = want.Truth // the one part the tables never held
	if !sameDelta(got, want) {
		t.Fatalf("DeltaAt rebuilt\n %+v\nfrom the rows of\n %+v", got, want)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("rebuilt delta encodes as\n %s\nthe applied one as\n %s", gotJSON, wantJSON)
	}
}

// TestDeltaAtInvertsExtend applies the well-formed seeds to one
// growing database, then rebuilds each from its span — all but the last
// from the middle of the tables — and replays the rebuilt ones over a
// fresh database: same deltas, same results, same tables.
func TestDeltaAtInvertsExtend(t *testing.T) {
	db := tinyDB(t)
	var applied []Delta
	var results []ExtendResult
	for _, name := range wellFormedSeeds {
		var d Delta
		if err := json.Unmarshal([]byte(deltaSeeds[name]), &d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := db.Extend(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := (Span{res.ClaimBase, res.SourceBase, res.DocBase, d.NewClaims, len(d.Sources), len(d.Documents)}); res.Span != want {
			t.Fatalf("%s: Extend reports span %+v, want %+v", name, res.Span, want)
		}
		applied, results = append(applied, d), append(results, res)
	}
	replay := tinyDB(t)
	for i, res := range results {
		got := db.DeltaAt(res.Span)
		checkRebuilt(t, got, applied[i])
		again, err := replay.Extend(got)
		if err != nil {
			t.Fatalf("delta %d: the rebuilt delta does not re-apply: %v", i, err)
		}
		if !reflect.DeepEqual(again, res) {
			t.Fatalf("delta %d: re-applying the rebuilt delta reports %+v, the original %+v", i, again, res)
		}
	}
	if !reflect.DeepEqual(replay, db) {
		t.Fatal("the rebuilt deltas grew a fresh database to other tables")
	}

	// The rebuilt delta owns its memory: scribbling on it leaves the
	// tables alone.
	last := results[len(results)-1].Span
	scratch := db.DeltaAt(last)
	for _, s := range scratch.Sources {
		s.Features[0] = -99
	}
	for _, doc := range scratch.Documents {
		doc.Features[0], doc.Refs[0] = -99, DeltaRef{Claim: 1 << 20}
	}
	if !reflect.DeepEqual(replay, db) {
		t.Fatal("DeltaAt returned views of the tables")
	}
}

// TestValidateSizesNothingByNewClaims: a new-claim count no set of
// references could cover is refused before anything is sized by it.
func TestValidateSizesNothingByNewClaims(t *testing.T) {
	d := Delta{NewClaims: math.MaxInt, Documents: []DeltaDocument{{Source: 0, Features: []float64{0, 0}, Refs: []DeltaRef{{Claim: -1}}}}}
	if allocs := testing.AllocsPerRun(10, func() {
		if d.Validate(3, 3, 1, 2) == nil {
			t.Fatal("math.MaxInt unreferenced claims validated")
		}
	}); allocs > 8 {
		t.Fatalf("refusing the delta took %.0f allocations", allocs)
	}
}

// releasedTinyDB is tinyDB with a regenerator that builds tinyDB again,
// its base released.
func releasedTinyDB(t *testing.T) *DB {
	db := tinyDB(t)
	db.SetRegenerator(func() (*DB, error) { return tinyDB(t), nil })
	db.ReleaseBase()
	return db
}

// sameTables reports whether two databases agree in every field but
// the regenerator and the base it counted.
func sameTables(a, b *DB) bool {
	x, y := *a, *b
	x.regen, x.base, y.regen, y.base = nil, rowCounts{}, nil, rowCounts{}
	return reflect.DeepEqual(x, y)
}

// refusesRows reports whether db.Rows panics with a message that names
// RegenerateBase.
func refusesRows(db *DB) (refused bool) {
	defer func() {
		msg, _ := recover().(string)
		refused = strings.Contains(msg, "RegenerateBase")
	}()
	db.Rows()
	return false
}

// TestRowsRefuseReleasedBase: the row view is the one way to the row
// tables and indexes. A database whose base is released refuses it with
// a panic that names RegenerateBase; regenerated, it hands out the view
// of a twin that never released it, table for table and index for
// index, the tail a delta appended included.
func TestRowsRefuseReleasedBase(t *testing.T) {
	var d Delta
	if err := json.Unmarshal([]byte(deltaSeeds["both-edges"]), &d); err != nil {
		t.Fatal(err)
	}
	db, twin := tinyDB(t), tinyDB(t)
	db.SetRegenerator(func() (*DB, error) { return tinyDB(t), nil })
	for _, x := range []*DB{db, twin} {
		if _, err := x.Extend(d); err != nil {
			t.Fatal(err)
		}
	}
	db.ReleaseBase()
	if !refusesRows(db) {
		t.Errorf("released: Rows does not panic with a message naming RegenerateBase")
	}
	db.RegenerateBase()
	got, want := db.Rows(), twin.Rows()
	for _, tab := range []struct {
		name      string
		got, want any
	}{
		{"clique list", got.Cliques, want.Cliques},
		{"source feature table", got.srcFeat, want.srcFeat},
		{"document feature table", got.docFeat, want.docFeat},
		{"feature widths", [2]int{got.srcDim, got.docDim}, [2]int{want.srcDim, want.docDim}},
		{"indexes", got.ix, want.ix},
	} {
		if !reflect.DeepEqual(tab.got, tab.want) {
			t.Errorf("released and regenerated, the %s is %v, the never-released twin's %v", tab.name, tab.got, tab.want)
		}
	}
}

// FuzzDeltaExtend feeds arbitrary bytes to a small finalized database
// as a JSON delta — the path a POST /v1/sessions/{id}/claims body and a
// stored transcript take. Nothing may panic or allocate by what the
// bytes claim; Extend must agree with Validate; a refused delta leaves
// the database untouched; and an applied one comes back out of DeltaAt
// as itself — it re-validates at the shape it was applied at, re-applies
// to a fresh database with the same result and the same tables, and
// matches the applied delta in every field a transcript digest mixes
// and every byte a WAL line holds. The indexes and components it leaves
// equal those of a per-row Reference built over its new clique list.
// A database that released its base (ReleaseBase) and regenerates it
// in Extend ends the same, reads the delta back from its tail, and,
// released again and regenerated, lists every component's sources as
// the held one does (a component the delta merged away lists none). A
// failing input lands in testdata/fuzz/FuzzDeltaExtend/; commit it with
// the fix.
func FuzzDeltaExtend(f *testing.F) {
	for _, name := range seedNames() {
		f.Add([]byte(deltaSeeds[name]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Delta
		if json.Unmarshal(data, &d) != nil {
			return
		}
		db := tinyDB(t)
		shape := db.Stats()
		valid := d.Validate(shape.Claims, shape.Sources, db.SourceFeatureDim(), db.DocFeatureDim())

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := db.Extend(d)
		runtime.ReadMemStats(&after)
		// Applying a delta costs by its rows, and every row took bytes to
		// spell; a megabyte over that was sized by a number in the input.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+512*uint64(len(data)) {
			t.Fatalf("extending by a %d-byte delta allocated %d bytes", len(data), grew)
		}
		if (valid == nil) != (err == nil) {
			t.Fatalf("Validate says %v, Extend says %v", valid, err)
		}

		// The same delta on a database that released its base first:
		// Extend regenerates it through the regenerator — a refusal
		// leaves it released and untouched — and lands on the same result
		// and tables. Released again, the database keeps the delta's rows
		// as its tail, DeltaAt reads them from there, and regenerating
		// puts back the very tables.
		rel := releasedTinyDB(t)
		relRes, relErr := rel.Extend(d)
		if (relErr == nil) != (err == nil) || rel.BaseReleased() != (err != nil) {
			t.Fatalf("released: Extend says %v, base released %v; held: Extend says %v", relErr, rel.BaseReleased(), err)
		}
		if err != nil {
			if !reflect.DeepEqual(db, tinyDB(t)) {
				t.Fatalf("refused (%v) but mutated", err)
			}
			if !sameTables(rel, releasedTinyDB(t)) {
				t.Fatalf("refused (%v) but mutated the released database", err)
			}
			return
		}
		if !reflect.DeepEqual(relRes, res) || !sameTables(rel, db) {
			t.Fatal("the delta extends a released database to other tables than a held one")
		}
		rel.ReleaseBase()
		checkRebuilt(t, rel.DeltaAt(res.Span), d)
		if rel.Stats() != db.Stats() {
			t.Fatalf("released, the database counts %+v, held %+v", rel.Stats(), db.Stats())
		}
		if rel.ix != nil {
			t.Fatal("released, the database still holds its indexes")
		}
		rel.RegenerateBase()
		for id := range db.NumComponents() {
			if got, want := rel.Rows().ComponentSources(id), db.Rows().ComponentSources(id); !reflect.DeepEqual(got, want) {
				t.Fatalf("regenerated, component %d lists sources %v, held %v", id, got, want)
			}
		}
		if !sameTables(rel, db) {
			t.Fatal("regenerating the base does not put back the tables")
		}

		if err := NewReference(db).Diff(db); err != nil {
			t.Fatalf("the indexes left the per-row reference: %v", err)
		}

		got := db.DeltaAt(res.Span)
		checkRebuilt(t, got, d)
		if err := got.Validate(shape.Claims, shape.Sources, db.SourceFeatureDim(), db.DocFeatureDim()); err != nil {
			t.Fatalf("the rebuilt delta does not re-validate: %v", err)
		}
		fresh := tinyDB(t)
		again, err := fresh.Extend(got)
		if err != nil {
			t.Fatalf("the rebuilt delta does not re-apply: %v", err)
		}
		if !reflect.DeepEqual(again, res) || !reflect.DeepEqual(fresh, db) {
			t.Fatal("the rebuilt delta re-applies to another database")
		}
	})
}
