// Package factdb defines the probabilistic fact database of §2.1: the sets
// of sources S, documents D and claims C, the clique structure of the CRF
// (§3.1), and the probabilistic state P with user labels. It also defines
// groundings (trusted fact sets) and the precision measures of §8.1.
//
// The package is purely structural; inference lives in the crf, gibbs and
// em packages.
package factdb

import (
	"cmp"
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

// Source is one row of DB.Sources. A source is its index: its feature
// vector ⟨f^S_1 .. f^S_mS⟩ is a row of the source feature table
// (Rows.SourceFeatures) and its documents and claims are in the clique
// list, so the row itself is empty and costs no memory — the slice
// exists so that len(db.Sources) is the source count.
type Source struct{}

// Document is one row of DB.Documents. Like a source, a document is its
// index: its feature vector ⟨f^D_1 .. f^D_mD⟩ is a row of the document
// feature table (Rows.DocFeatures), and the claims it references and the
// source that published it are read off its cliques (Rows.DocCliques,
// Rows.DocSource), which the clique list keeps together and whose Doc
// field finds them. The row itself costs no memory.
type Document struct{}

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
//
// The model reads S and D only through clique feature vectors (Eq. 8),
// so both are stored as what that needs and nothing else: two
// contiguous, pointer-free feature tables (nS×mS and nD×mD, row-major)
// and the clique list, ordered document by document. A database is
// built either row by row (AddSource, AddDocument, then Finalize) or
// from tables a generator filled itself (FromTables). The tables and
// the indexes derived from them are read through one view, Rows, which
// a released database refuses.
type DB struct {
	Sources   []Source
	Documents []Document
	NumClaims int

	cliques []Clique // the clique list, read through Rows
	ix      *indexes // derived from the clique list, read through Rows; nil while released

	componentOf      []int32   // connected component id per claim
	componentMembers [][]int32 // claims per component

	srcFeat, docFeat       []float64 // the feature tables
	srcFeatDim, docFeatDim int
	ragged                 error // first AddSource/AddDocument vector of the wrong length; Finalize reports it
	finalized              bool

	// The base/tail seam (DESIGN.md §19). regen rebuilds the base — the
	// rows the database held when SetRegenerator counted them as base —
	// and Extend appends the tail behind it. While ReleaseBase has
	// dropped the base, the tables hold the tail alone and dropped counts
	// the rows missing from their front; it is zero while they are held.
	regen         func() (*DB, error)
	base, dropped rowCounts
}

// SourceFeatureDim returns mS, the source feature dimensionality.
func (db *DB) SourceFeatureDim() int { return db.srcFeatDim }

// DocFeatureDim returns mD, the document feature dimensionality.
func (db *DB) DocFeatureDim() int { return db.docFeatDim }

// Rows is the view through which the model reads a database's row
// tables — the clique list and the two feature tables — and the
// adjacency indexes derived from them. DB.Rows hands it out, once per
// pass (a sweep set-up, a solve, a projection, a scoring round), and
// the pass indexes plain slices; the view shares the tables, so it must
// not be modified, and it is not valid across an Extend or a release.
type Rows struct {
	// Cliques lists every relation factor, document by document: the
	// cliques of document d are the contiguous range DocCliques(d).
	Cliques []Clique

	srcFeat, docFeat []float64
	srcDim, docDim   int
	ix               *indexes
}

// Rows returns the view of the row tables and indexes. It panics on a
// database whose base is released (ReleaseBase): RegenerateBase must
// put it back first.
func (db *DB) Rows() Rows {
	if db.BaseReleased() {
		panic("factdb: Rows on a released base; RegenerateBase must put it back first")
	}
	return Rows{db.cliques, db.srcFeat, db.docFeat, db.srcFeatDim, db.docFeatDim, db.ix}
}

// SourceFeatures returns ⟨f^S_1 .. f^S_mS⟩ of source s: its row of the
// source feature table.
func (r Rows) SourceFeatures(s int) []float64 {
	return r.srcFeat[s*r.srcDim : (s+1)*r.srcDim : (s+1)*r.srcDim]
}

// DocFeatures returns ⟨f^D_1 .. f^D_mD⟩ of document d: its row of the
// document feature table.
func (r Rows) DocFeatures(d int) []float64 {
	return r.docFeat[d*r.docDim : (d+1)*r.docDim : (d+1)*r.docDim]
}

// DocCliques returns the cliques of document d — one per claim it
// references, each carrying the claim, the stance and the publishing
// source — as a view of its range in Cliques, found by binary search on
// Clique.Doc (the list is grouped by ascending document).
func (r Rows) DocCliques(d int) []Clique {
	first := func(d int) int {
		i, _ := slices.BinarySearchFunc(r.Cliques, int32(d), func(q Clique, d int32) int { return cmp.Compare(q.Doc, d) })
		return i
	}
	lo, hi := first(d), first(d+1)
	return r.Cliques[lo:hi:hi]
}

// DocSource returns the source that published document d.
func (r Rows) DocSource(d int) int { return int(r.DocCliques(d)[0].Source) }

// AddSource appends a source with the given feature vector to a
// database under construction and returns its id. The first source
// fixes mS. Rows are validated by Finalize, not here.
func (db *DB) AddSource(features []float64) int {
	s := len(db.Sources)
	if s == 0 {
		db.srcFeatDim = len(features)
	} else if len(features) != db.srcFeatDim && db.ragged == nil {
		db.ragged = fmt.Errorf("factdb: source %d has %d features, want %d", s, len(features), db.srcFeatDim)
	}
	db.Sources = append(db.Sources, Source{})
	db.srcFeat = append(db.srcFeat, features...)
	return s
}

// AddDocument appends a document published by source, with the given
// feature vector and at least one claim reference, to a database under
// construction and returns its id. The first document fixes mD. Rows
// are validated by Finalize, so NumClaims may still grow and the source
// may be added later.
func (db *DB) AddDocument(source int, features []float64, refs ...ClaimRef) int {
	d := len(db.Documents)
	if d == 0 {
		db.docFeatDim = len(features)
	} else if len(features) != db.docFeatDim && db.ragged == nil {
		db.ragged = fmt.Errorf("factdb: document %d has %d features, want %d", d, len(features), db.docFeatDim)
	}
	db.Documents = append(db.Documents, Document{})
	db.docFeat = append(db.docFeat, features...)
	for _, ref := range refs {
		db.cliques = append(db.cliques, Clique{
			Claim:  id32(ref.Claim),
			Doc:    int32(d),
			Source: id32(source),
			Stance: ref.Stance,
		})
	}
	return d
}

// id32 narrows a row id to the width cliques store; an id beyond that
// range becomes -1, which Finalize reports as unknown like any other
// id outside the database.
func id32(id int) int32 {
	if int(int32(id)) != id {
		return -1
	}
	return int32(id)
}

// FromTables builds a finalized database over tables the caller filled
// and hands over: srcFeat is the numSources×mS source feature table and
// docFeat the nD×mD document feature table (row-major; the dimensions
// follow from the lengths), and cliques lists every relation factor
// grouped by ascending document id, every document owning at least one.
// Nothing is copied; the caller must not touch the slices afterwards.
func FromTables(numClaims, numSources int, srcFeat, docFeat []float64, cliques []Clique) (*DB, error) {
	if numSources <= 0 || len(cliques) == 0 {
		return nil, fmt.Errorf("factdb: tables hold %d sources and %d cliques", numSources, len(cliques))
	}
	numDocs := int(cliques[len(cliques)-1].Doc) + 1
	if numDocs <= 0 || len(srcFeat)%numSources != 0 || len(docFeat)%numDocs != 0 {
		return nil, fmt.Errorf("factdb: feature tables of %d and %d values do not divide into %d source and %d document rows",
			len(srcFeat), len(docFeat), numSources, numDocs)
	}
	db := &DB{
		Sources:    make([]Source, numSources),
		Documents:  make([]Document, numDocs),
		NumClaims:  numClaims,
		cliques:    cliques,
		srcFeat:    srcFeat,
		docFeat:    docFeat,
		srcFeatDim: len(srcFeat) / numSources,
		docFeatDim: len(docFeat) / numDocs,
	}
	n := 0 // documents seen
	for i, q := range cliques {
		if int(q.Doc) == n {
			n++
		} else if n == 0 || int(q.Doc) != n-1 {
			return nil, fmt.Errorf("factdb: clique %d names document %d after document %d; cliques must be grouped by ascending document",
				i, q.Doc, n-1)
		}
	}
	if err := db.Finalize(); err != nil {
		return nil, err
	}
	return db, nil
}

// Finalize validates the raw structure and builds all derived indexes:
// per-claim and per-source adjacency, and the connected components of
// the claim graph (two claims are connected when they share a source).
// Finalize must be called before the DB is used for inference; it is
// idempotent.
func (db *DB) Finalize() error {
	if db.finalized {
		return nil
	}
	if db.ragged != nil {
		return db.ragged
	}
	if db.NumClaims <= 0 {
		return fmt.Errorf("factdb: database has no claims")
	}
	if len(db.Sources) == 0 {
		return fmt.Errorf("factdb: database has no sources")
	}
	// One walk over the clique list, document by document: a document
	// whose id the walk skips, or that never comes, owns no clique.
	d := 0 // documents seen
	for i, q := range db.cliques {
		if i == 0 || q.Doc != db.cliques[i-1].Doc {
			if d == len(db.Documents) {
				return fmt.Errorf("factdb: clique %d names document %d of %d", i, q.Doc, d)
			}
			if int(q.Doc) != d {
				return fmt.Errorf("factdb: document %d references no claim", d)
			}
			d++
		} else if src := db.cliques[i-1].Source; q.Source != src {
			return fmt.Errorf("factdb: document %d is published by sources %d and %d", q.Doc, src, q.Source)
		}
		if q.Source < 0 || int(q.Source) >= len(db.Sources) {
			return fmt.Errorf("factdb: document %d references unknown source %d", q.Doc, q.Source)
		}
		if q.Claim < 0 || int(q.Claim) >= db.NumClaims {
			return fmt.Errorf("factdb: document %d references unknown claim %d", q.Doc, q.Claim)
		}
	}
	if d != len(db.Documents) {
		return fmt.Errorf("factdb: document %d references no claim", d)
	}
	db.index()
	for c := range db.NumClaims {
		if len(db.ix.claimCliques.row(c)) == 0 {
			return fmt.Errorf("factdb: claim %d is referenced by no document", c)
		}
	}

	// Connected components over claims via shared sources.
	uf := graph.NewUnionFind(db.NumClaims)
	for s := range db.Sources {
		claims := db.ix.sourceClaims.row(s)
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
	db.listComponentSources()
	db.finalized = true
	return nil
}

// csr is one flat adjacency index (compressed sparse row): row r lists
// data[off[r]:off[r+1]]. Both arrays are exact-size and pointer-free, so
// an index costs 4·(rows+1) + 4·entries bytes whatever its shape, and a
// row with no entries costs one offset.
type csr struct{ off, data []int32 }

// row returns row r as a view of data, capped at its end.
func (x csr) row(r int) []int32 {
	lo, hi := x.off[r], x.off[r+1]
	return x.data[lo:hi:hi]
}

// Building a csr takes two passes over the same entries. The first
// counts row r's entries into off[r]; seal turns the counts into each
// row's end and sizes data; the second pass places the entries back to
// front, each place moving its row's end down by one, so a row comes out
// in the reverse of the order the second pass reaches its entries, and
// off holds every row's start (and the total last) once all are placed.
func newCSR(rows int) csr { return csr{off: make([]int32, rows+1)} }

func (x *csr) seal() {
	n := len(x.off) - 1 // ≥ 1: Finalize refuses a database without claims or sources
	for r := 1; r < n; r++ {
		x.off[r] += x.off[r-1]
	}
	x.off[n] = x.off[n-1]
	x.data = make([]int32, x.off[n])
}

func (x *csr) place(r, v int32) {
	x.off[r]--
	x.data[x.off[r]] = v
}

// indexes is what a database derives from its clique list alone, read
// through Rows and dropped whole with the base (ReleaseBase).
type indexes struct {
	claimCliques     csr       // clique indices per claim, ascending
	sourceClaims     csr       // distinct claims per source, ascending
	claimSources     csr       // distinct sources per claim, ascending
	componentSources [][]int32 // distinct sources per component
}

// index builds the three adjacency indexes over the validated clique
// list, whole, keeping the components' source lists; Finalize, Extend
// and RegenerateBase call it. ClaimCliques is a counting sort of the
// cliques by claim. SourceClaims walks the claims over their cliques
// with a stamp per source (1 + the last claim that reached it) keeping
// each claim once, and ClaimSources is its transpose; both place in
// descending order, so every row comes out ascending and distinct and
// no row is sorted.
func (db *DB) index() {
	if db.ix == nil {
		db.ix = new(indexes)
	}
	ix, cliques, nc, ns := db.ix, db.cliques, db.NumClaims, len(db.Sources)
	ix.claimCliques = newCSR(nc)
	for _, q := range cliques {
		ix.claimCliques.off[q.Claim]++
	}
	ix.claimCliques.seal()
	for i := len(cliques) - 1; i >= 0; i-- {
		ix.claimCliques.place(cliques[i].Claim, int32(i))
	}

	ix.sourceClaims, ix.claimSources = newCSR(ns), newCSR(nc)
	stamp := make([]int32, ns)
	for c := range nc {
		for _, i := range ix.claimCliques.row(c) {
			if s := cliques[i].Source; stamp[s] != int32(c)+1 {
				stamp[s] = int32(c) + 1
				ix.sourceClaims.off[s]++
				ix.claimSources.off[c]++
			}
		}
	}
	ix.sourceClaims.seal()
	ix.claimSources.seal()
	clear(stamp)
	for c := nc - 1; c >= 0; c-- {
		for _, i := range ix.claimCliques.row(c) {
			if s := cliques[i].Source; stamp[s] != int32(c)+1 {
				stamp[s] = int32(c) + 1
				ix.sourceClaims.place(s, int32(c))
			}
		}
	}
	for s := ns - 1; s >= 0; s-- {
		for _, c := range ix.sourceClaims.row(s) {
			ix.claimSources.place(c, int32(s))
		}
	}
}

// ClaimCliques returns the indices into Cliques of claim c's cliques,
// ascending. The returned slice must not be modified.
func (r Rows) ClaimCliques(c int) []int32 { return r.ix.claimCliques.row(c) }

// SourceClaims returns the distinct claims source s's documents
// reference, ascending. The returned slice must not be modified.
func (r Rows) SourceClaims(s int) []int32 { return r.ix.sourceClaims.row(s) }

// ClaimSources returns the distinct sources of claim c's documents,
// ascending. The returned slice must not be modified.
func (r Rows) ClaimSources(c int) []int32 { return r.ix.claimSources.row(c) }

// ComponentSources returns the distinct sources linked to the claims of
// component id. Because components are closed under shared sources, every
// claim of such a source belongs to the component. The returned slice
// must not be modified.
func (r Rows) ComponentSources(id int) []int32 { return r.ix.componentSources[id] }

// SharedSources returns the number of sources that link to both claims a
// and b — the raw ingredient of the correlation matrix M(c, c′) in Eq. 26.
func (r Rows) SharedSources(a, b int) int {
	sa, sb := r.ClaimSources(a), r.ClaimSources(b)
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

// listComponentSources lists the sources of every component, whether
// Finalize or Extend built it; one that an Extend merged away, which
// has no members, lists none (nil).
func (db *DB) listComponentSources() {
	db.ix.componentSources = make([][]int32, len(db.componentMembers))
	listed := make([]bool, len(db.Sources))
	for ci, members := range db.componentMembers {
		if members != nil {
			db.ix.componentSources[ci] = db.sourcesOf(members, listed)
		}
	}
}

// sourcesOf lists the distinct sources of a component's members in the
// order ComponentSources promises, whether Finalize or Extend built the
// component: members ascending, each claim's sorted sources, first
// occurrence kept. listed is a scratch mark per source, all false on
// entry and again on return.
func (db *DB) sourcesOf(members []int32, listed []bool) []int32 {
	n := 0
	for _, c := range members {
		for _, s := range db.ix.claimSources.row(int(c)) {
			if !listed[s] {
				listed[s] = true
				n++
			}
		}
	}
	srcs := make([]int32, 0, n)
	for _, c := range members {
		for _, s := range db.ix.claimSources.row(int(c)) {
			if listed[s] {
				listed[s] = false
				srcs = append(srcs, s)
			}
		}
	}
	return srcs
}

// ComponentOf returns the connected-component id of claim c.
func (db *DB) ComponentOf(c int) int { return int(db.componentOf[c]) }

// ComponentMembers returns the claims in component id. The returned slice
// must not be modified.
func (db *DB) ComponentMembers(id int) []int32 { return db.componentMembers[id] }

// NumComponents returns the number of connected components of the claim
// graph; the graph-partitioning optimisation of §5.1 processes these
// independently.
func (db *DB) NumComponents() int { return len(db.componentMembers) }

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
		Cliques:    db.NumCliques(),
		Components: db.NumComponents(),
	}
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("%d sources, %d documents, %d claims, %d cliques, %d components",
		s.Sources, s.Documents, s.Claims, s.Cliques, s.Components)
}
