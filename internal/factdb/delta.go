package factdb

import (
	"fmt"
	"slices"

	"factcheck/internal/graph"
)

// Delta is a position-independent corpus increment: new claims, sources
// and documents arriving into a live database. References inside a
// delta use signed addressing so the same encoded delta applies
// regardless of the database's current size — a non-negative id names
// an existing row, and -(i+1) names the delta's own i-th new row:
//
//   - DeltaDocument.Source = -(i+1) → Delta.Sources[i]
//   - DeltaRef.Claim       = -(i+1) → the delta's i-th new claim
//
// Global ids for the delta's rows are assigned densely at apply time
// (DB.Extend), in declaration order, so a delta recorded in a session
// transcript replays to the identical structure.
type Delta struct {
	// NewClaims is the number of claims the delta introduces. Every new
	// claim must be referenced by at least one delta document — the
	// same no-orphan invariant Finalize enforces for the base corpus.
	NewClaims int             `json:"newClaims,omitempty"`
	Sources   []DeltaSource   `json:"sources,omitempty"`
	Documents []DeltaDocument `json:"documents,omitempty"`
	// Truth optionally carries the ground-truth credibility of the
	// delta's new claims (one entry per new claim, or empty). The
	// database itself never reads it — truth lives outside factdb — but
	// evaluation harnesses that grade sessions against synthetic ground
	// truth need the truth of ingested claims to travel with the delta,
	// including through recorded transcripts, so it rides along here.
	Truth []bool `json:"truth,omitempty"`
}

// DeltaSource is a source arriving with the delta; its global id is
// assigned at apply time.
type DeltaSource struct {
	Features []float64 `json:"features"`
}

// DeltaDocument is a document arriving with the delta. Source uses the
// signed addressing described on Delta.
type DeltaDocument struct {
	Source   int        `json:"source"`
	Features []float64  `json:"features"`
	Refs     []DeltaRef `json:"refs"`
}

// DeltaRef is one claim reference of a delta document. Claim uses the
// signed addressing described on Delta.
type DeltaRef struct {
	Claim  int    `json:"claim"`
	Stance Stance `json:"stance,omitempty"`
}

// Empty reports whether the delta carries nothing at all.
func (d *Delta) Empty() bool {
	return d.NewClaims == 0 && len(d.Sources) == 0 && len(d.Documents) == 0
}

// Counts returns the delta's row counts (claims, sources, documents) —
// what applying it adds to a database's totals.
func (d *Delta) Counts() (claims, sources, docs int) {
	return d.NewClaims, len(d.Sources), len(d.Documents)
}

// Validate checks the delta against a database shape without applying
// it: nClaims/nSources are the database's current totals (or virtual
// totals, when earlier deltas are queued ahead of this one) and
// srcDim/docDim its feature dimensionalities. A delta that validates
// against the shape it will be applied at cannot fail in Extend.
func (d *Delta) Validate(nClaims, nSources, srcDim, docDim int) error {
	if d.NewClaims < 0 {
		return fmt.Errorf("factdb: delta declares %d new claims", d.NewClaims)
	}
	if len(d.Truth) != 0 && len(d.Truth) != d.NewClaims {
		return fmt.Errorf("factdb: delta carries %d truth values for %d new claims", len(d.Truth), d.NewClaims)
	}
	for i, s := range d.Sources {
		if len(s.Features) != srcDim {
			return fmt.Errorf("factdb: delta source %d has %d features, want %d", i, len(s.Features), srcDim)
		}
	}
	// Every new claim needs a reference of its own, so a count beyond
	// the references the delta holds is wrong before it is allocated by.
	refs := 0
	for _, doc := range d.Documents {
		refs += len(doc.Refs)
	}
	if d.NewClaims > refs {
		return fmt.Errorf("factdb: delta declares %d new claims over %d references; every new claim must be referenced by a document", d.NewClaims, refs)
	}
	referenced := make([]bool, d.NewClaims)
	for i, doc := range d.Documents {
		if len(doc.Features) != docDim {
			return fmt.Errorf("factdb: delta document %d has %d features, want %d", i, len(doc.Features), docDim)
		}
		if doc.Source >= 0 {
			if doc.Source >= nSources {
				return fmt.Errorf("factdb: delta document %d references unknown source %d", i, doc.Source)
			}
		} else if j := -doc.Source - 1; j >= len(d.Sources) {
			return fmt.Errorf("factdb: delta document %d references delta source %d of %d", i, j, len(d.Sources))
		}
		if len(doc.Refs) == 0 {
			return fmt.Errorf("factdb: delta document %d references no claim", i)
		}
		for _, ref := range doc.Refs {
			if ref.Stance != Support && ref.Stance != Refute {
				return fmt.Errorf("factdb: delta document %d has invalid stance %d", i, ref.Stance)
			}
			if ref.Claim >= 0 {
				if ref.Claim >= nClaims {
					return fmt.Errorf("factdb: delta document %d references unknown claim %d", i, ref.Claim)
				}
			} else if j := -ref.Claim - 1; j >= d.NewClaims {
				return fmt.Errorf("factdb: delta document %d references delta claim %d of %d", i, j, d.NewClaims)
			} else {
				referenced[j] = true
			}
		}
	}
	for j, ok := range referenced {
		if !ok {
			return fmt.Errorf("factdb: delta claim %d is referenced by no document", j)
		}
	}
	return nil
}

// Span locates the rows one applied delta occupies in the tables: the
// first global id of each kind (the database's pre-extend totals) and
// the delta's row counts. Rows are only ever appended, so a span stays
// valid for the life of the database, and it is all DeltaAt needs to
// rebuild the delta.
type Span struct {
	ClaimBase, SourceBase, DocBase int
	Claims, Sources, Documents     int
}

// ExtendResult describes what applying a delta changed, in the terms
// downstream layers need to update themselves incrementally.
type ExtendResult struct {
	// Span is where the delta's rows went.
	Span
	// Dirty lists the post-extend component ids whose structure or
	// evidence changed — new components, merge winners, and components
	// whose claims gained cliques. Inference and gain caches for these
	// must be refreshed; every other component is untouched.
	Dirty []int
	// Removed lists component ids absorbed into a merge winner. Their
	// slots stay allocated (component ids are stable) but hold no
	// members; nothing maps to them any more.
	Removed []int
}

// grow returns s with capacity for exactly n more elements (slices.Grow
// rounds the capacity up the way append does).
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make([]T, len(s), len(s)+n)
	copy(out, s)
	return out
}

// Extend applies a delta to a finalized database in place. It copies
// the tables it grows once, to their exact new length; rebuilds the
// three adjacency indexes whole with the builder Finalize uses —
// O(cliques) int32 writes, a fraction of that copy; and updates the
// components in O(delta + touched components), with a miniature
// union-find over only the touched pieces: because components are
// closed under shared sources, a source the delta touches contributes
// exactly one existing component (the one all its prior claims belong
// to) plus the delta's own references, so merging those per-source
// groups yields the new partition. Merge winners keep the smallest
// participating component id, so ids of untouched components — and of
// winners — are stable across an extend, which is what lets
// per-component caches survive with only the returned Dirty set
// invalidated.
//
// The delta is fully validated before any mutation: on error the
// database is unchanged, a released base included. A valid delta puts
// a released base back first (RegenerateBase).
func (db *DB) Extend(delta Delta) (ExtendResult, error) {
	if !db.finalized {
		return ExtendResult{}, fmt.Errorf("factdb: Extend requires a finalized database")
	}
	if err := delta.Validate(db.NumClaims, len(db.Sources), db.srcFeatDim, db.docFeatDim); err != nil {
		return ExtendResult{}, err
	}
	db.RegenerateBase() // the merge plan reads the indexes, and the tables grow whole

	res := ExtendResult{Span: Span{
		ClaimBase:  db.NumClaims,
		SourceBase: len(db.Sources),
		DocBase:    len(db.Documents),
		Claims:     delta.NewClaims,
		Sources:    len(delta.Sources),
		Documents:  len(delta.Documents),
	}}
	// resolve turns a signed reference into a global id: -(i+1) is the
	// delta's own i-th row of its kind, which lands at base+i.
	resolve := func(ref, base int) int {
		if ref >= 0 {
			return ref
		}
		return base + (-ref - 1)
	}

	// The mini union-find's node space: one node per existing component
	// that participates, one node per new claim. Nodes are numbered in
	// first-encounter order over the delta's documents, which is
	// deterministic for a given (db, delta) pair.
	nodeOf := make(map[[2]int]int) // {0, compID} or {1, newClaim} → node
	const (
		kindComp  = 0
		kindClaim = 1
	)
	node := func(kind, id int) int {
		key := [2]int{kind, id}
		if n, ok := nodeOf[key]; ok {
			return n
		}
		n := len(nodeOf)
		nodeOf[key] = n
		return n
	}
	type group struct{ nodes []int }
	groups := make(map[int]*group) // resolved source id → its connectivity group
	groupOrder := make([]int, 0, len(delta.Documents))
	for _, doc := range delta.Documents {
		src := resolve(doc.Source, res.SourceBase)
		g := groups[src]
		if g == nil {
			g = &group{}
			// An existing source anchors its group to the component all
			// its prior claims share (closure under sources: they share
			// exactly one).
			if src < res.SourceBase {
				if claims := db.ix.sourceClaims.row(src); len(claims) > 0 {
					g.nodes = append(g.nodes, node(kindComp, int(db.componentOf[claims[0]])))
				}
			}
			groups[src] = g
			groupOrder = append(groupOrder, src)
		}
		for _, ref := range doc.Refs {
			c := resolve(ref.Claim, res.ClaimBase)
			if c < res.ClaimBase {
				g.nodes = append(g.nodes, node(kindComp, int(db.componentOf[c])))
			} else {
				g.nodes = append(g.nodes, node(kindClaim, c))
			}
		}
	}
	uf := graph.NewUnionFind(len(nodeOf))
	for _, src := range groupOrder {
		g := groups[src]
		for i := 1; i < len(g.nodes); i++ {
			uf.Union(g.nodes[0], g.nodes[i])
		}
	}

	// Validation passed and the merge plan is computed; mutate. The
	// tables grow to exactly their new length: append's doubling would
	// leave up to a whole corpus of slack on every ingesting session.
	newCliques := 0
	for _, d := range delta.Documents {
		newCliques += len(d.Refs)
	}
	db.srcFeat = grow(db.srcFeat, len(delta.Sources)*db.srcFeatDim)
	db.docFeat = grow(db.docFeat, len(delta.Documents)*db.docFeatDim)
	db.cliques = grow(db.cliques, newCliques)
	db.componentOf = grow(db.componentOf, delta.NewClaims)
	for _, s := range delta.Sources {
		db.Sources = append(db.Sources, Source{})
		db.srcFeat = append(db.srcFeat, s.Features...)
	}
	db.NumClaims += delta.NewClaims
	for i := 0; i < delta.NewClaims; i++ {
		db.componentOf = append(db.componentOf, -1) // assigned below
	}
	for _, d := range delta.Documents {
		src := resolve(d.Source, res.SourceBase)
		id := len(db.Documents)
		db.Documents = append(db.Documents, Document{})
		db.docFeat = append(db.docFeat, d.Features...)
		for _, ref := range d.Refs {
			db.cliques = append(db.cliques, Clique{
				Claim:  int32(resolve(ref.Claim, res.ClaimBase)),
				Doc:    int32(id),
				Source: int32(src),
				Stance: ref.Stance,
			})
		}
	}
	db.index()

	// Resolve each merged set to its final component: the smallest
	// participating old id wins (stable ids), a set with no old
	// component gets a fresh slot. Components() orders sets by smallest
	// node index — deterministic.
	byKind := make([][2]int, len(nodeOf))
	//lint:allow detrand inverse permutation: nodeOf is a bijection, every n written exactly once, so the result is iteration-order independent
	for key, n := range nodeOf {
		byKind[n] = key
	}
	listed := make([]bool, len(db.Sources))
	for _, set := range uf.Components() {
		var oldComps, newClaims []int
		for _, n := range set {
			if key := byKind[n]; key[0] == kindComp {
				oldComps = append(oldComps, key[1])
			} else {
				newClaims = append(newClaims, key[1])
			}
		}
		winner := -1
		for _, oc := range oldComps {
			if winner < 0 || oc < winner {
				winner = oc
			}
		}
		if winner < 0 {
			winner = len(db.componentMembers)
			db.componentMembers = append(db.componentMembers, nil)
			db.ix.componentSources = append(db.ix.componentSources, nil)
		}
		var members []int32
		for _, oc := range oldComps {
			members = append(members, db.componentMembers[oc]...)
			if oc != winner {
				db.componentMembers[oc] = nil
				db.ix.componentSources[oc] = nil
				res.Removed = append(res.Removed, oc)
			}
		}
		for _, c := range newClaims {
			members = append(members, int32(c))
		}
		slices.Sort(members)
		for _, c := range members {
			db.componentOf[c] = int32(winner)
		}
		db.componentMembers[winner] = members
		db.ix.componentSources[winner] = db.sourcesOf(members, listed)
		res.Dirty = append(res.Dirty, winner)
	}
	slices.Sort(res.Dirty)
	slices.Sort(res.Removed)
	return res, nil
}

// DeltaAt is the inverse of Extend: it rebuilds, from the tables alone,
// the delta whose rows sit at the given span (an ExtendResult's Span).
// Features are copied out of the two feature tables, a document's
// source, references and stances are read off its clique range — Extend
// wrote one clique per reference, in order — and ids inside the span
// are re-addressed as -(i+1). Validate admits no other spelling of a
// delta's own rows (an id ≥ 0 must lie below the pre-extend totals), so
// the result is the applied delta field for field, Truth excepted: the
// database never held it. The rebuilt delta shares nothing with the
// tables. A span lies in the tail, so a released base (ReleaseBase) is
// not needed: the rows are read where the kept tail holds them.
func (db *DB) DeltaAt(at Span) Delta {
	signed := func(id int32, base int) int {
		if int(id) >= base {
			return -(int(id) - base + 1)
		}
		return int(id)
	}
	d := Delta{NewClaims: at.Claims}
	if at.Sources > 0 {
		d.Sources = make([]DeltaSource, at.Sources)
		lo := (at.SourceBase - db.dropped.sources) * db.srcFeatDim
		feat := slices.Clone(db.srcFeat[lo : lo+at.Sources*db.srcFeatDim])
		for i := range d.Sources {
			d.Sources[i].Features = feat[i*db.srcFeatDim : (i+1)*db.srcFeatDim : (i+1)*db.srcFeatDim]
		}
	}
	if at.Documents == 0 {
		return d
	}
	d.Documents = make([]DeltaDocument, at.Documents)
	lo := (at.DocBase - db.dropped.documents) * db.docFeatDim
	feat := slices.Clone(db.docFeat[lo : lo+at.Documents*db.docFeatDim])
	tail, nRefs := Rows{Cliques: db.cliques}, 0 // built here, not by DB.Rows: the tail may be all that is held
	for i := range d.Documents {
		nRefs += len(tail.DocCliques(at.DocBase + i))
	}
	refs := make([]DeltaRef, nRefs)
	for i := range d.Documents {
		cliques := tail.DocCliques(at.DocBase + i)
		doc := &d.Documents[i]
		doc.Source = signed(cliques[0].Source, at.SourceBase)
		doc.Features = feat[i*db.docFeatDim : (i+1)*db.docFeatDim : (i+1)*db.docFeatDim]
		doc.Refs, refs = refs[:len(cliques):len(cliques)], refs[len(cliques):]
		for j, q := range cliques {
			doc.Refs[j] = DeltaRef{Claim: signed(q.Claim, at.ClaimBase), Stance: q.Stance}
		}
	}
	return d
}
