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
// their features and cliques — and its indexes (ReleaseIndexes), which
// RegenerateBase rebuilds exactly. It keeps the row counts, the feature
// dimensions, the components' ids and members (the ids depend on the
// Extend history) and the tail. Until RegenerateBase, Rows refuses by
// name, and only those and NumCliques, Stats and DeltaAt may be read. A
// database without a regenerator, or already released, is left as it
// is; one with a regenerator belongs to one session, whose engine
// regenerates it before any reader takes a view (em.Engine.Rows,
// DESIGN.md §7).
func (db *DB) ReleaseBase() {
	if db.regen == nil || db.BaseReleased() {
		return
	}
	b := db.base
	db.srcFeat = own(db.srcFeat[b.sources*db.srcFeatDim:])
	db.docFeat = own(db.docFeat[b.documents*db.docFeatDim:])
	db.cliques = own(db.cliques[b.cliques:])
	db.ReleaseIndexes()
	db.dropped = b
}

// ReleaseIndexes drops what a database derives from its clique list
// alone: the three adjacency indexes and the components' source lists.
// It keeps every row, the tail, the components' ids and members and the
// counts. Rows refuses by name until RegenerateBase rebuilds them in
// O(cliques) from the kept rows, with no regenerator; NumCliques, Stats
// and DeltaAt read as before. Like ReleaseBase it is for a database
// that backs one session (DESIGN.md §7, §19).
func (db *DB) ReleaseIndexes() { db.ix = nil }

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

// IndexesReleased reports whether a finalized database holds no
// indexes, ReleaseIndexes or ReleaseBase having dropped them and
// RegenerateBase not yet rebuilt them.
func (db *DB) IndexesReleased() bool { return db.finalized && db.ix == nil }

// RegenerateBase puts back what ReleaseBase or ReleaseIndexes dropped,
// so the database is again what it was before, field for field. A
// released base comes back first: the regenerated rows go in front of
// the kept tail. Then, when the indexes are gone — with the base or
// alone — they are rebuilt over the whole clique list; with only the
// indexes gone that rebuild is all it does, in O(cliques) and without
// the regenerator. On a database that holds its base and indexes it
// does nothing. Outside this package one door calls it,
// em.Engine.Rows, which hands out the view straight after. A
// regenerator that fails or returns other rows than it was attached
// over has broken its promise, and RegenerateBase panics.
func (db *DB) RegenerateBase() {
	if db.BaseReleased() {
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
	}
	if db.IndexesReleased() {
		db.index()
		db.listComponentSources()
	}
}

// NumCliques returns the number of cliques, released ones included.
func (db *DB) NumCliques() int { return db.dropped.cliques + len(db.cliques) }
