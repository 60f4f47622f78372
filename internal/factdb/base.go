package factdb

import (
	"fmt"
	"slices"
)

// rowCounts counts a database's rows by kind.
type rowCounts struct{ claims, sources, documents, cliques int }

// count returns the database's rows as its tables hold them.
func (db *DB) count() rowCounts {
	return rowCounts{db.NumClaims, len(db.Sources), len(db.Documents), len(db.cliques)}
}

// SetRegenerator makes the database's present rows its base and regen
// the function that rebuilds them: a finalized database with exactly
// those rows, bit for bit, every time it is called — what a corpus
// generated from a request is (service.BuildCorpus attaches itself).
// Only such a database can drop its base (ReleaseBase). A nil regen
// makes the database hold its base for good. It is called on a
// database that holds its rows: a released one counts only its tail.
func (db *DB) SetRegenerator(regen func() (*DB, error)) {
	db.regen, db.base = regen, db.count()
}

// ReleaseBase drops the base rows of a database with a regenerator —
// their features and cliques — and its indexes: the three adjacency
// indexes and the components' source lists, which derive from the
// clique list. RegenerateBase rebuilds both exactly. It keeps the row
// counts, the feature dimensions, the components' ids and members (the
// ids depend on the Extend history) and the tail. Until RegenerateBase,
// Rows refuses by name, and only those and NumCliques, Stats and
// DeltaAt may be read. A database without a regenerator, or already
// released, is left as it is; one with a regenerator belongs to one
// session, whose engine regenerates it before any reader takes a view
// (em.Engine.Rows, DESIGN.md §7).
func (db *DB) ReleaseBase() {
	if db.regen == nil || db.BaseReleased() {
		return
	}
	b := db.base
	db.srcFeat = own(db.srcFeat[b.sources*db.srcFeatDim:])
	db.docFeat = own(db.docFeat[b.documents*db.docFeatDim:])
	db.cliques = own(db.cliques[b.cliques:])
	db.ix = nil
	db.dropped = b
}

// own returns a copy of s that shares no memory with it, nil when s is
// empty.
func own[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

// BaseReleased reports whether ReleaseBase has dropped the base and
// RegenerateBase has not yet put it back.
func (db *DB) BaseReleased() bool { return db.dropped != rowCounts{} }

// RegenerateBase puts back what ReleaseBase dropped, so the database is
// again what it was before, field for field: the regenerated rows go in
// front of the kept tail, and the indexes are rebuilt over the whole
// clique list. On a database that holds its base it does nothing.
// Outside this package one door calls it, em.Engine.Rows, which hands
// out the view straight after. A regenerator that fails or returns
// other rows than it was attached over has broken its promise, and
// RegenerateBase panics.
func (db *DB) RegenerateBase() {
	if !db.BaseReleased() {
		return
	}
	b, err := db.regen()
	if err == nil && (b.count() != db.base || b.srcFeatDim != db.srcFeatDim || b.docFeatDim != db.docFeatDim) {
		err = fmt.Errorf("%+v rows of %d and %d features, want %+v of %d and %d",
			b.count(), b.srcFeatDim, b.docFeatDim, db.base, db.srcFeatDim, db.docFeatDim)
	}
	if err != nil {
		panic(fmt.Sprintf("factdb: regenerating a released base: %v", err))
	}
	db.srcFeat = append(grow(b.srcFeat, len(db.srcFeat)), db.srcFeat...)
	db.docFeat = append(grow(b.docFeat, len(db.docFeat)), db.docFeat...)
	db.cliques = append(grow(b.cliques, len(db.cliques)), db.cliques...)
	db.dropped = rowCounts{}
	db.index()
	db.listComponentSources()
}

// NumCliques returns the number of cliques, released ones included.
func (db *DB) NumCliques() int { return db.dropped.cliques + len(db.cliques) }
