package factdb

import (
	"reflect"
	"testing"
)

// freshDelta adds one new source publishing one document about one new
// claim — no contact with existing rows, so it must land in a fresh
// component slot.
func freshDelta() Delta {
	return Delta{
		NewClaims: 1,
		Sources:   []DeltaSource{{Features: []float64{0.7}}},
		Documents: []DeltaDocument{{
			Source:   -1,
			Features: []float64{1, 0},
			Refs:     []DeltaRef{{Claim: -1, Stance: Support}},
		}},
		Truth: []bool{true},
	}
}

func TestExtendFreshComponent(t *testing.T) {
	db := tinyDB(t)
	res, err := db.Extend(freshDelta())
	if err != nil {
		t.Fatal(err)
	}
	if res.ClaimBase != 3 || res.SourceBase != 3 || res.DocBase != 4 {
		t.Fatalf("bases = %+v", res)
	}
	if db.NumClaims != 4 || len(db.Sources) != 4 || len(db.Documents) != 5 {
		t.Fatalf("totals = %d/%d/%d", db.NumClaims, len(db.Sources), len(db.Documents))
	}
	if db.NumComponents() != 3 {
		t.Fatalf("components = %d, want 3 (fresh slot)", db.NumComponents())
	}
	if got := db.ComponentOf(3); got != 2 {
		t.Fatalf("new claim in component %d, want fresh slot 2", got)
	}
	if !reflect.DeepEqual(res.Dirty, []int{2}) || len(res.Removed) != 0 {
		t.Fatalf("dirty/removed = %v/%v", res.Dirty, res.Removed)
	}
	// Old components are untouched: ids, members and adjacency stable.
	if db.ComponentOf(0) != db.ComponentOf(1) || db.ComponentOf(0) == db.ComponentOf(3) {
		t.Fatal("extend perturbed existing components")
	}
	if got := db.SourceClaims(3); len(got) != 1 || got[0] != 3 {
		t.Fatalf("new source claims = %v", got)
	}
	if got := db.ClaimSources(3); len(got) != 1 || got[0] != 3 {
		t.Fatalf("new claim sources = %v", got)
	}
}

// TestExtendMergesComponents: one new source citing claims from both
// existing components plus a new claim must merge everything into the
// smallest participating component id, leaving the loser's slot empty
// but allocated (stable ids), and report the merge.
func TestExtendMergesComponents(t *testing.T) {
	db := tinyDB(t)
	comp0, comp2 := db.ComponentOf(0), db.ComponentOf(2)
	d := Delta{
		NewClaims: 1,
		Sources:   []DeltaSource{{Features: []float64{0.4}}},
		Documents: []DeltaDocument{{
			Source:   -1,
			Features: []float64{0, 1},
			Refs: []DeltaRef{
				{Claim: 0, Stance: Support},
				{Claim: 2, Stance: Refute},
				{Claim: -1, Stance: Support},
			},
		}},
	}
	res, err := db.Extend(d)
	if err != nil {
		t.Fatal(err)
	}
	winner := comp0
	if comp2 < winner {
		winner = comp2
	}
	loser := comp0 + comp2 - winner
	if !reflect.DeepEqual(res.Dirty, []int{winner}) {
		t.Fatalf("dirty = %v, want [%d]", res.Dirty, winner)
	}
	if !reflect.DeepEqual(res.Removed, []int{loser}) {
		t.Fatalf("removed = %v, want [%d]", res.Removed, loser)
	}
	if db.NumComponents() != 2 {
		t.Fatalf("components = %d, slots must stay allocated", db.NumComponents())
	}
	for c := 0; c < db.NumClaims; c++ {
		if db.ComponentOf(c) != winner {
			t.Fatalf("claim %d in component %d, want %d", c, db.ComponentOf(c), winner)
		}
	}
	if got := db.ComponentMembers(winner); len(got) != 4 {
		t.Fatalf("winner members = %v", got)
	}
	if got := db.ComponentMembers(loser); len(got) != 0 {
		t.Fatalf("loser members = %v, want empty", got)
	}
	// The winner's source list is recomputed over the merged membership.
	if got := db.ComponentSources(winner); len(got) != 4 {
		t.Fatalf("winner sources = %v", got)
	}
}

// TestExtendExistingSourceAnchorsComponent: a document by an existing
// source joins that source's component without a new source row, and
// only that component is dirtied.
func TestExtendExistingSourceAnchorsComponent(t *testing.T) {
	db := tinyDB(t)
	comp2 := db.ComponentOf(2)
	d := Delta{
		NewClaims: 1,
		Documents: []DeltaDocument{{
			Source:   2, // existing, belongs to claim 2's component
			Features: []float64{1, 1},
			Refs:     []DeltaRef{{Claim: -1, Stance: Support}},
		}},
	}
	res, err := db.Extend(d)
	if err != nil {
		t.Fatal(err)
	}
	if db.ComponentOf(3) != comp2 {
		t.Fatalf("new claim in component %d, want %d", db.ComponentOf(3), comp2)
	}
	if !reflect.DeepEqual(res.Dirty, []int{comp2}) || len(res.Removed) != 0 {
		t.Fatalf("dirty/removed = %v/%v", res.Dirty, res.Removed)
	}
	if db.ComponentOf(0) != db.ComponentOf(1) {
		t.Fatal("untouched component perturbed")
	}
}

// TestExtendSignedAddressingIsPositionIndependent: the same encoded
// delta applies at two different database shapes, landing its rows at
// each shape's bases — the property that lets transcripts replay deltas
// regardless of when they were recorded.
func TestExtendSignedAddressingIsPositionIndependent(t *testing.T) {
	d := freshDelta()
	a := tinyDB(t)
	ra, err := a.Extend(d)
	if err != nil {
		t.Fatal(err)
	}

	b := tinyDB(t)
	if _, err := b.Extend(freshDelta()); err != nil { // grow b first
		t.Fatal(err)
	}
	rb, err := b.Extend(d)
	if err != nil {
		t.Fatal(err)
	}
	if ra.ClaimBase != 3 || rb.ClaimBase != 4 {
		t.Fatalf("claim bases = %d/%d", ra.ClaimBase, rb.ClaimBase)
	}
	if rb.SourceBase != 4 || rb.DocBase != 5 {
		t.Fatalf("second apply bases = %+v", rb)
	}
	// Both applies resolve the delta-local refs to their own bases.
	lastA, lastB := a.Rows().DocCliques(len(a.Documents) - 1)[0], b.Rows().DocCliques(len(b.Documents) - 1)[0]
	if int(lastA.Source) != ra.SourceBase || int(lastA.Claim) != ra.ClaimBase {
		t.Fatalf("first apply resolved refs to %d/%d", lastA.Source, lastA.Claim)
	}
	if int(lastB.Source) != rb.SourceBase || int(lastB.Claim) != rb.ClaimBase {
		t.Fatalf("second apply resolved refs to %d/%d", lastB.Source, lastB.Claim)
	}
}

// TestExtendValidationAtomic: every malformed delta is rejected before
// any mutation — the database stays deep-equal to a pristine copy.
func TestExtendValidationAtomic(t *testing.T) {
	cases := map[string]Delta{
		"negative claims": {NewClaims: -1},
		"truth length": {
			NewClaims: 2,
			Truth:     []bool{true},
			Documents: []DeltaDocument{
				{Source: 0, Features: []float64{0, 0}, Refs: []DeltaRef{{Claim: -1}, {Claim: -2}}},
			},
		},
		"source feature dim": {
			Sources:   []DeltaSource{{Features: []float64{1, 2}}},
			Documents: []DeltaDocument{{Source: -1, Features: []float64{0, 0}, Refs: []DeltaRef{{Claim: 0}}}},
		},
		"doc feature dim": {
			Documents: []DeltaDocument{{Source: 0, Features: []float64{0}, Refs: []DeltaRef{{Claim: 0}}}},
		},
		"unknown source": {
			Documents: []DeltaDocument{{Source: 9, Features: []float64{0, 0}, Refs: []DeltaRef{{Claim: 0}}}},
		},
		"delta source out of range": {
			Documents: []DeltaDocument{{Source: -2, Features: []float64{0, 0}, Refs: []DeltaRef{{Claim: 0}}}},
		},
		"unknown claim": {
			Documents: []DeltaDocument{{Source: 0, Features: []float64{0, 0}, Refs: []DeltaRef{{Claim: 9}}}},
		},
		"delta claim out of range": {
			NewClaims: 1,
			Documents: []DeltaDocument{{Source: 0, Features: []float64{0, 0}, Refs: []DeltaRef{{Claim: -3}}}},
		},
		"invalid stance": {
			Documents: []DeltaDocument{{Source: 0, Features: []float64{0, 0}, Refs: []DeltaRef{{Claim: 0, Stance: 7}}}},
		},
		"orphan new claim": {NewClaims: 1},
		"document without references": {
			Documents: []DeltaDocument{{Source: 0, Features: []float64{0, 0}}},
		},
	}
	pristine := tinyDB(t)
	for name, d := range cases {
		db := tinyDB(t)
		if _, err := db.Extend(d); err == nil {
			t.Errorf("%s: Extend accepted malformed delta", name)
			continue
		}
		if !reflect.DeepEqual(db, pristine) {
			t.Errorf("%s: failed Extend mutated the database", name)
		}
	}
}

func TestExtendRequiresFinalized(t *testing.T) {
	db := &DB{NumClaims: 1}
	db.AddSource([]float64{1})
	db.AddDocument(0, []float64{0, 0}, ClaimRef{Claim: 0})
	if _, err := db.Extend(freshDelta()); err == nil {
		t.Fatal("Extend accepted an unfinalized database")
	}
}

func TestDeltaCountsAndEmpty(t *testing.T) {
	var zero Delta
	if !zero.Empty() {
		t.Fatal("zero delta not empty")
	}
	d := freshDelta()
	if d.Empty() {
		t.Fatal("fresh delta reported empty")
	}
	c, s, docs := d.Counts()
	if c != 1 || s != 1 || docs != 1 {
		t.Fatalf("counts = %d/%d/%d", c, s, docs)
	}
}
