package synth

import (
	"slices"
	"testing"
)

func TestSubsetShapes(t *testing.T) {
	c := Generate(Wikipedia.Scaled(0.3), 3)
	claims := c.ClaimOrder[:10]
	sub, toOrig := Subset(c, claims)
	if sub.DB.NumClaims != 10 || len(toOrig) != 10 {
		t.Fatalf("subset claims = %d", sub.DB.NumClaims)
	}
	if err := sub.DB.Finalize(); err != nil {
		t.Fatalf("subset not finalized: %v", err)
	}
	// Every document must reference only kept claims.
	rows := sub.DB.Rows()
	for d := range sub.DB.Documents {
		for _, q := range rows.DocCliques(d) {
			if q.Claim < 0 || q.Claim >= 10 {
				t.Fatalf("dangling claim ref %d", q.Claim)
			}
		}
	}
}

func TestSubsetPreservesTruthAndFeatures(t *testing.T) {
	c := Generate(Wikipedia.Scaled(0.3), 5)
	claims := c.ClaimOrder[:8]
	sub, toOrig := Subset(c, claims)
	for newID, orig := range toOrig {
		if sub.Truth[newID] != c.Truth[orig] {
			t.Fatalf("truth mismatch for claim %d", orig)
		}
	}
	// Spot-check one document's features survive re-indexing.
	d0, rows := sub.DB.Rows().DocFeatures(0), c.DB.Rows()
	found := false
	for od := range c.DB.Documents {
		if slices.Equal(rows.DocFeatures(od), d0) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("subset document features do not match any original document")
	}
}

func TestSubsetClaimOrderRestricted(t *testing.T) {
	c := Generate(Wikipedia.Scaled(0.2), 7)
	claims := c.ClaimOrder[:6]
	sub, toOrig := Subset(c, claims)
	if len(sub.ClaimOrder) != 6 {
		t.Fatalf("subset order length = %d", len(sub.ClaimOrder))
	}
	// Order must be the original posting order of the kept claims.
	for i, newID := range sub.ClaimOrder {
		if toOrig[newID] != claims[i] {
			t.Fatalf("order[%d] = claim %d, want %d", i, toOrig[newID], claims[i])
		}
	}
}

func TestSubsetDeduplicates(t *testing.T) {
	c := Generate(Wikipedia.Scaled(0.2), 9)
	claims := []int{3, 3, 5, 3}
	sub, toOrig := Subset(c, claims)
	if sub.DB.NumClaims != 2 || len(toOrig) != 2 {
		t.Fatalf("dedup failed: %d claims", sub.DB.NumClaims)
	}
}

func TestSubsetFullIsIsomorphic(t *testing.T) {
	c := Generate(Wikipedia.Scaled(0.15), 11)
	all := make([]int, c.DB.NumClaims)
	for i := range all {
		all[i] = i
	}
	sub, _ := Subset(c, all)
	if sub.DB.Stats().Claims != c.DB.Stats().Claims ||
		sub.DB.Stats().Documents != c.DB.Stats().Documents ||
		sub.DB.Stats().Cliques != c.DB.Stats().Cliques {
		t.Fatalf("full subset differs: %v vs %v", sub.DB.Stats(), c.DB.Stats())
	}
}
