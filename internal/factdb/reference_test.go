package factdb

import (
	"fmt"
	"slices"

	"factcheck/internal/graph"
)

// Reference is the row-per-slice layout the flat indexes replaced, kept
// as the oracle they are held to: Finalize's per-row fill and its
// components, as they were before the indexes became CSR. It reads the
// database's clique list and nothing the new layout built. The indexes
// are a function of the clique list alone, so a Reference built after
// an Extend is the oracle for the indexes Extend leaves too.
type Reference struct {
	claimCliques [][]int32 // clique indices per claim
	sourceClaims [][]int32 // distinct claims per source
	claimSources [][]int32 // distinct sources per claim

	componentOf      []int32
	componentMembers [][]int32
	componentSources [][]int32
}

// NewReference builds the reference indexes over a finalized db's
// clique list the way Finalize used to.
func NewReference(db *DB) *Reference {
	r, cliques := &Reference{}, db.Rows().Cliques
	perClaim := make([]int32, db.NumClaims)
	perSource := make([]int32, len(db.Sources))
	for _, q := range cliques {
		perClaim[q.Claim]++
		perSource[q.Source]++
	}
	r.claimCliques = make([][]int32, db.NumClaims)
	for c, n := range perClaim {
		r.claimCliques[c] = make([]int32, 0, n)
	}
	for i, q := range cliques {
		r.claimCliques[q.Claim] = append(r.claimCliques[q.Claim], int32(i))
	}
	stamp := make([]int32, len(db.Sources)) // 1 + the last claim that reached the source
	clear(perSource)                        // now: distinct claims per source
	clear(perClaim)                         // now: distinct sources per claim
	for c, row := range r.claimCliques {
		for _, i := range row {
			if s := cliques[i].Source; stamp[s] != int32(c)+1 {
				stamp[s] = int32(c) + 1
				perSource[s]++
				perClaim[c]++
			}
		}
	}
	r.sourceClaims = make([][]int32, len(db.Sources))
	for s, n := range perSource {
		r.sourceClaims[s] = make([]int32, 0, n)
	}
	clear(stamp)
	for c, row := range r.claimCliques {
		for _, i := range row {
			if s := cliques[i].Source; stamp[s] != int32(c)+1 {
				stamp[s] = int32(c) + 1
				r.sourceClaims[s] = append(r.sourceClaims[s], int32(c))
			}
		}
	}
	r.claimSources = make([][]int32, db.NumClaims)
	for c, n := range perClaim {
		r.claimSources[c] = make([]int32, 0, n)
	}
	for s, claims := range r.sourceClaims {
		for _, c := range claims {
			r.claimSources[c] = append(r.claimSources[c], int32(s))
		}
	}

	uf := graph.NewUnionFind(db.NumClaims)
	for _, claims := range r.sourceClaims {
		for i := 1; i < len(claims); i++ {
			uf.Union(int(claims[0]), int(claims[i]))
		}
	}
	r.componentOf = make([]int32, db.NumClaims)
	comps := uf.Components()
	r.componentMembers = make([][]int32, len(comps))
	for ci, members := range comps {
		ms := make([]int32, len(members))
		for i, m := range members {
			r.componentOf[m] = int32(ci)
			ms[i] = int32(m)
		}
		r.componentMembers[ci] = ms
	}
	r.componentSources = make([][]int32, len(comps))
	listed := make([]bool, len(db.Sources))
	for ci, members := range r.componentMembers {
		r.componentSources[ci] = r.sourcesOf(members, listed)
	}
	return r
}

func (r *Reference) sourcesOf(members []int32, listed []bool) []int32 {
	n := 0
	for _, c := range members {
		for _, s := range r.claimSources[c] {
			if !listed[s] {
				listed[s] = true
				n++
			}
		}
	}
	srcs := make([]int32, 0, n)
	for _, c := range members {
		for _, s := range r.claimSources[c] {
			if listed[s] {
				listed[s] = false
				srcs = append(srcs, s)
			}
		}
	}
	return srcs
}

// Diff returns the first place db's indexes and components differ from
// the reference's, or nil: every row of ClaimCliques, SourceClaims and
// ClaimSources, and every claim's component — its members and sources,
// in order. Extend keeps the id of a component it merges others into
// and empties theirs, so ids are not compared, only the partition they
// name; and a non-empty component must be the one its members name.
func (r *Reference) Diff(db *DB) error {
	if db.NumClaims != len(r.claimCliques) || len(db.Sources) != len(r.sourceClaims) {
		return fmt.Errorf("%d claims, %d sources; the reference has %d, %d",
			db.NumClaims, len(db.Sources), len(r.claimCliques), len(r.sourceClaims))
	}
	for c := range db.NumClaims {
		if got, want := db.Rows().ClaimCliques(c), r.claimCliques[c]; !slices.Equal(got, want) {
			return fmt.Errorf("ClaimCliques(%d) = %v, want %v", c, got, want)
		}
		if got, want := db.Rows().ClaimSources(c), r.claimSources[c]; !slices.Equal(got, want) {
			return fmt.Errorf("ClaimSources(%d) = %v, want %v", c, got, want)
		}
		id, ref := db.ComponentOf(c), r.componentOf[c]
		if got, want := db.ComponentMembers(id), r.componentMembers[ref]; !slices.Equal(got, want) {
			return fmt.Errorf("claim %d's component %d has members %v, want %v", c, id, got, want)
		}
		if got, want := db.Rows().ComponentSources(id), r.componentSources[ref]; !slices.Equal(got, want) {
			return fmt.Errorf("claim %d's component %d has sources %v, want %v", c, id, got, want)
		}
	}
	for s := range db.Sources {
		if got, want := db.Rows().SourceClaims(s), r.sourceClaims[s]; !slices.Equal(got, want) {
			return fmt.Errorf("SourceClaims(%d) = %v, want %v", s, got, want)
		}
	}
	for id := range db.NumComponents() {
		if ms := db.ComponentMembers(id); len(ms) > 0 && db.ComponentOf(int(ms[0])) != id {
			return fmt.Errorf("component %d lists claim %d, which is in component %d", id, ms[0], db.ComponentOf(int(ms[0])))
		}
	}
	return nil
}
