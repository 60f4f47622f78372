// Package factdb defines the probabilistic fact database of §2.1: the sets
// of sources S, documents D and claims C, the clique structure of the CRF
// (§3.1), and the probabilistic state P with user labels. It also defines
// groundings (trusted fact sets) and the precision measures of §8.1.
//
// The package is purely structural; inference lives in the crf, gibbs and
// em packages.
package factdb

import (
	"fmt"
	"slices"

	"factcheck/internal/graph"
)

// Stance describes how a document relates to a claim (§3.1, "Handling
// opposing stances"). A refuting document attaches to the opposing
// variable ¬c of the claim; because ¬c ≡ 1−c in a binary model, the
// non-equality constraint of Eq. 3 holds by construction.
type Stance int8

const (
	// Support means the document asserts the claim is credible.
	Support Stance = iota
	// Refute means the document asserts the claim is not credible.
	Refute
)

// String implements fmt.Stringer.
func (s Stance) String() string {
	if s == Refute {
		return "refute"
	}
	return "support"
}

// Sign returns +1 for Support and −1 for Refute; the factor by which a
// clique's evidence enters the claim's log-odds.
func (s Stance) Sign() float64 {
	if s == Refute {
		return -1
	}
	return 1
}

// ClaimRef links a document to a claim with a stance.
type ClaimRef struct {
	Claim  int
	Stance Stance
}

// Source is a data source (website, user, news provider) with its feature
// vector ⟨f^S_1 .. f^S_mS⟩.
type Source struct {
	ID       int
	Features []float64
}

// Document is a piece of content published by one source, referencing one
// or more claims, with its language-quality feature vector ⟨f^D_1 .. f^D_mD⟩.
type Document struct {
	ID       int
	Source   int
	Features []float64
	Refs     []ClaimRef
}

// Clique is a relation factor π = {c, d, s} of the CRF (§3.1). There is
// one clique per (document, claim reference) pair.
type Clique struct {
	Claim  int32
	Doc    int32
	Source int32
	Stance Stance
}

// DB is the structural part of a probabilistic fact database
// Q = ⟨S, D, C, P⟩. The probabilistic part P lives in State so multiple
// hypothetical states can share one structure (needed for the what-if
// inference behind information gain, §4.2).
type DB struct {
	Sources   []Source
	Documents []Document
	NumClaims int

	// Derived indexes, built by Finalize.
	Cliques      []Clique
	ClaimCliques [][]int32 // clique indices per claim
	SourceClaims [][]int32 // distinct claims per source
	ClaimSources [][]int32 // distinct sources per claim

	componentOf      []int32   // connected component id per claim
	componentMembers [][]int32 // claims per component
	componentSources [][]int32 // distinct sources per component

	srcFeatDim, docFeatDim int
	finalized              bool
}

// SourceFeatureDim returns mS, the source feature dimensionality.
func (db *DB) SourceFeatureDim() int { return db.srcFeatDim }

// DocFeatureDim returns mD, the document feature dimensionality.
func (db *DB) DocFeatureDim() int { return db.docFeatDim }

// SourceFeatures returns ⟨f^S_1 .. f^S_mS⟩ of source s. The returned
// slice must not be modified.
func (db *DB) SourceFeatures(s int) []float64 { return db.Sources[s].Features }

// DocFeatures returns ⟨f^D_1 .. f^D_mD⟩ of document d. The returned slice
// must not be modified.
func (db *DB) DocFeatures(d int) []float64 { return db.Documents[d].Features }

// Finalize validates the raw structure and builds all derived indexes:
// cliques, per-claim and per-source adjacency, and the connected
// components of the claim graph (two claims are connected when they share
// a source). Finalize must be called before the DB is used for inference;
// it is idempotent.
func (db *DB) Finalize() error {
	if db.finalized {
		return nil
	}
	if db.NumClaims <= 0 {
		return fmt.Errorf("factdb: database has no claims")
	}
	if len(db.Sources) == 0 {
		return fmt.Errorf("factdb: database has no sources")
	}
	for i, s := range db.Sources {
		if s.ID != i {
			return fmt.Errorf("factdb: source %d has ID %d; IDs must be dense", i, s.ID)
		}
		if i == 0 {
			db.srcFeatDim = len(s.Features)
		} else if len(s.Features) != db.srcFeatDim {
			return fmt.Errorf("factdb: source %d has %d features, want %d", i, len(s.Features), db.srcFeatDim)
		}
	}
	seenClaim := make([]bool, db.NumClaims)
	for i, d := range db.Documents {
		if d.ID != i {
			return fmt.Errorf("factdb: document %d has ID %d; IDs must be dense", i, d.ID)
		}
		if d.Source < 0 || d.Source >= len(db.Sources) {
			return fmt.Errorf("factdb: document %d references unknown source %d", i, d.Source)
		}
		if i == 0 {
			db.docFeatDim = len(d.Features)
		} else if len(d.Features) != db.docFeatDim {
			return fmt.Errorf("factdb: document %d has %d features, want %d", i, len(d.Features), db.docFeatDim)
		}
		for _, ref := range d.Refs {
			if ref.Claim < 0 || ref.Claim >= db.NumClaims {
				return fmt.Errorf("factdb: document %d references unknown claim %d", i, ref.Claim)
			}
			seenClaim[ref.Claim] = true
		}
	}
	for c, ok := range seenClaim {
		if !ok {
			return fmt.Errorf("factdb: claim %d is referenced by no document", c)
		}
	}

	// Cliques and adjacency. The distinct-neighbour lists are built by
	// append, sort, compact over one flat scratch array per side (sized
	// by a counting pass) — no per-row set — and each kept as its own
	// exact-size slice: Extend replaces rows one at a time, and a row
	// carved out of a shared array could never be freed on its own.
	db.ClaimCliques = make([][]int32, db.NumClaims)
	perClaim := make([]int32, db.NumClaims)
	perSource := make([]int32, len(db.Sources))
	for _, d := range db.Documents {
		perSource[d.Source] += int32(len(d.Refs))
		for _, ref := range d.Refs {
			perClaim[ref.Claim]++
		}
	}
	db.ClaimSources = rowsOf(perClaim)
	db.SourceClaims = rowsOf(perSource)
	for _, d := range db.Documents {
		for _, ref := range d.Refs {
			idx := int32(len(db.Cliques))
			db.Cliques = append(db.Cliques, Clique{
				Claim:  int32(ref.Claim),
				Doc:    int32(d.ID),
				Source: int32(d.Source),
				Stance: ref.Stance,
			})
			db.ClaimCliques[ref.Claim] = append(db.ClaimCliques[ref.Claim], idx)
			db.ClaimSources[ref.Claim] = append(db.ClaimSources[ref.Claim], int32(d.Source))
			db.SourceClaims[d.Source] = append(db.SourceClaims[d.Source], int32(ref.Claim))
		}
	}
	db.ClaimSources = sortedDistinct(db.ClaimSources)
	db.SourceClaims = sortedDistinct(db.SourceClaims)

	// Connected components over claims via shared sources.
	uf := graph.NewUnionFind(db.NumClaims)
	for _, claims := range db.SourceClaims {
		for i := 1; i < len(claims); i++ {
			uf.Union(int(claims[0]), int(claims[i]))
		}
	}
	db.componentOf = make([]int32, db.NumClaims)
	comps := uf.Components()
	db.componentMembers = make([][]int32, len(comps))
	for ci, members := range comps {
		ms := make([]int32, len(members))
		for i, m := range members {
			db.componentOf[m] = int32(ci)
			ms[i] = int32(m)
		}
		db.componentMembers[ci] = ms
	}
	db.componentSources = make([][]int32, len(comps))
	for ci, members := range db.componentMembers {
		seen := make(map[int32]struct{})
		var srcs []int32
		for _, c := range members {
			for _, s := range db.ClaimSources[c] {
				if _, ok := seen[s]; !ok {
					seen[s] = struct{}{}
					srcs = append(srcs, s)
				}
			}
		}
		db.componentSources[ci] = srcs
	}
	db.finalized = true
	return nil
}

// rowsOf carves one empty row per entry of sizes out of a single backing
// array, each with exactly its size as capacity, so filling a row never
// reallocates or writes into a neighbour.
func rowsOf(sizes []int32) [][]int32 {
	total := 0
	for _, n := range sizes {
		total += int(n)
	}
	flat := make([]int32, total)
	rows := make([][]int32, len(sizes))
	off := 0
	for i, n := range sizes {
		rows[i] = flat[off : off : off+int(n)]
		off += int(n)
	}
	return rows
}

// sortedDistinct sorts every row ascending, drops its duplicates, and
// returns each as a slice of its own, exactly its size (rows and what
// backs them are scratch afterwards).
func sortedDistinct(rows [][]int32) [][]int32 {
	out := make([][]int32, len(rows))
	for i, r := range rows {
		slices.Sort(r)
		r = slices.Compact(r)
		out[i] = make([]int32, len(r)) // exact: slices.Clone rounds the capacity up
		copy(out[i], r)
	}
	return out
}

// ComponentOf returns the connected-component id of claim c.
func (db *DB) ComponentOf(c int) int { return int(db.componentOf[c]) }

// ComponentMembers returns the claims in component id. The returned slice
// must not be modified.
func (db *DB) ComponentMembers(id int) []int32 { return db.componentMembers[id] }

// ComponentSources returns the distinct sources linked to the claims of
// component id. Because components are closed under shared sources, every
// claim of such a source belongs to the component. The returned slice
// must not be modified.
func (db *DB) ComponentSources(id int) []int32 { return db.componentSources[id] }

// NumComponents returns the number of connected components of the claim
// graph; the graph-partitioning optimisation of §5.1 processes these
// independently.
func (db *DB) NumComponents() int { return len(db.componentMembers) }

// SharedSources returns the number of sources that link to both claims a
// and b — the raw ingredient of the correlation matrix M(c, c′) in Eq. 26.
func (db *DB) SharedSources(a, b int) int {
	sa, sb := db.ClaimSources[a], db.ClaimSources[b]
	i, j, n := 0, 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] < sb[j]:
			i++
		case sa[i] > sb[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Stats summarises the database for logging and experiment output.
type Stats struct {
	Sources, Documents, Claims, Cliques, Components int
}

// Stats returns the size summary of the database.
func (db *DB) Stats() Stats {
	return Stats{
		Sources:    len(db.Sources),
		Documents:  len(db.Documents),
		Claims:     db.NumClaims,
		Cliques:    len(db.Cliques),
		Components: db.NumComponents(),
	}
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("%d sources, %d documents, %d claims, %d cliques, %d components",
		s.Sources, s.Documents, s.Claims, s.Cliques, s.Components)
}
