package synth

import (
	"reflect"
	"testing"
)

func TestGenerateDeltaDeterministic(t *testing.T) {
	p := Wikipedia.Scaled(0.05)
	a := GenerateDelta(p, 0.1, 7)
	b := GenerateDelta(p, 0.1, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical (profile, frac, seed) produced different deltas")
	}
	c := GenerateDelta(p, 0.1, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical deltas")
	}
}

func TestGenerateDeltaShape(t *testing.T) {
	p := Wikipedia.Scaled(0.05)
	d := GenerateDelta(p, 0.1, 7)
	if d.NewClaims < 1 || len(d.Sources) < 1 || len(d.Documents) < d.NewClaims {
		t.Fatalf("degenerate delta: %d claims, %d sources, %d documents",
			d.NewClaims, len(d.Sources), len(d.Documents))
	}
	if len(d.Truth) != d.NewClaims {
		t.Fatalf("truth rides with the delta: %d entries for %d new claims", len(d.Truth), d.NewClaims)
	}
	// No-orphan coverage: document i < NewClaims cites new claim i.
	for i := 0; i < d.NewClaims; i++ {
		if got := d.Documents[i].Refs[0].Claim; got != -(i + 1) {
			t.Fatalf("document %d cites claim %d, want coverage ref %d", i, got, -(i + 1))
		}
	}
	// Signed addressing stays in range at any base shape generated from
	// the profile: new rows in [-n, -1], existing rows in [0, base).
	for i, doc := range d.Documents {
		if doc.Source < -len(d.Sources) || doc.Source >= p.Sources {
			t.Fatalf("document %d source %d out of range [-%d, %d)", i, doc.Source, len(d.Sources), p.Sources)
		}
		for _, ref := range doc.Refs {
			if ref.Claim < -d.NewClaims || ref.Claim >= p.Claims {
				t.Fatalf("document %d claim ref %d out of range [-%d, %d)", i, ref.Claim, d.NewClaims, p.Claims)
			}
		}
	}
}

func TestGenerateDeltaPanicsOnBadFrac(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for frac <= 0")
		}
	}()
	GenerateDelta(Wikipedia.Scaled(0.05), 0, 1)
}

func TestCommunityProfile(t *testing.T) {
	p := Wikipedia.Scaled(0.2)
	if got := CommunityProfile(p, 1); !reflect.DeepEqual(got, p) {
		t.Fatal("parts <= 1 must return the profile unchanged")
	}
	sub := CommunityProfile(p, 4)
	if sub.Claims >= p.Claims || sub.Sources >= p.Sources || sub.Documents >= p.Documents {
		t.Fatalf("4-way community sub-profile not smaller: %+v vs %+v", sub, p)
	}
}
