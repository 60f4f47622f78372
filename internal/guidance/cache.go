package guidance

import (
	"factcheck/internal/stats"
	"factcheck/internal/wire"
)

// gainKind indexes the two what-if gain families held by a GainCache.
type gainKind int

const (
	gainInfo gainKind = iota
	gainSource
	numGainKinds
)

// GainCache is the cross-answer gain/entropy cache behind incremental
// dirty-component re-ranking. The what-if strategies score candidates
// per connected component: a candidate's gain is a pure function of its
// component's frozen state (chain assignment, marginals, grounding,
// labels), the model parameters, and a deterministic per-candidate seed.
// Between full EM sweeps a single user answer perturbs only the answered
// claim's component, so the gains of every other component are still
// exact — the cache keeps them and the strategies re-score only the
// dirty component.
//
// Exactness is what preserves the repository's standing invariant that
// selection traces are bit-identical across configurations: every cache
// entry is keyed by a (global, per-component) epoch pair, the per-
// candidate scoring seed is derived from the same epoch pair (never from
// a per-round RNG draw), and invalidation bumps the epoch. A cached gain
// is therefore byte-identical to what a from-scratch recompute would
// produce — SetFullRecompute(true) forces that recompute (same seeds,
// no reuse) and is the A/B lever the property tests and benchmarks use.
//
// Epochs move on three triggers, driven by core.Session: the answered
// claim's component (per-answer dirty marking), a global bump on full EM
// parameter sweeps and confirmation-check repairs (θ and every
// component's samples changed), and implicitly on restore — replay
// re-executes the same invalidation sequence, rebuilding identical
// epochs. A GainCache is owned by one session and is not safe for
// concurrent use.
type GainCache struct {
	base   uint64
	full   bool
	global uint64   // bumped by InvalidateAll; starts at 1 so zero entries never match
	local  []uint64 // per-component epoch, bumped by InvalidateComponent

	gains     [numGainKinds][]gainEntry // per claim
	entropies [numGainKinds][]gainEntry // per component: the "before" entropy, held in gain

	hits, misses int64 // lookup telemetry (gains only)
}

// gainEntry is one cached value — a candidate's gain or a component's
// "before" entropy — valid while its epoch pair matches the component's
// current epochs.
type gainEntry struct {
	global, local uint64
	gain          float64
}

// gainCacheStream separates the cache's seed universe from every other
// StreamSeed consumer of the session seed.
const gainCacheStream = 0x6761696e63616368 // "gaincach"

// NewGainCache creates an empty cache whose deterministic seed universe
// derives from seed (a session passes its Options.Seed, so restored
// sessions rebuild the identical universe).
func NewGainCache(seed int64) *GainCache {
	return &GainCache{
		base:   uint64(stats.StreamSeed(uint64(seed), gainCacheStream)),
		global: 1,
	}
}

// SetFullRecompute switches the cache into full-recompute mode: epochs
// and seeds are maintained exactly as before, but lookups always miss,
// so every candidate is re-scored every round. Because cached values are
// exact, rankings are bit-identical with the mode on or off — it exists
// so tests can assert that property and benchmarks can price the cache.
//
//lint:allow unreached the exactness oracle of BenchmarkIncrementalRank/mode=full and core's cache tests
func (g *GainCache) SetFullRecompute(on bool) { g.full = on }

// InvalidateAll marks every component dirty — the fallback taken on full
// EM parameter sweeps, confirmation-check repairs and any other change
// with non-local reach.
func (g *GainCache) InvalidateAll() { g.global++ }

// InvalidateComponent marks one component dirty — the per-answer path.
func (g *GainCache) InvalidateComponent(comp int) {
	g.growLocal(comp)
	g.local[comp]++
}

// InvalidateMerged marks the components a corpus extend dirtied —
// merge winners, freshly created components, and components whose
// claims gained evidence. Unlike InvalidateComponent, the new epoch
// jumps past the maximum epoch of every component: a merge moves
// claims between components, and an absorbed claim's cached entry
// still carries its old component's epoch — a plain +1 bump of the
// winner could collide with that stale value and serve a wrong gain.
func (g *GainCache) InvalidateMerged(comps []int) {
	var max uint64
	for _, e := range g.local {
		if e > max {
			max = e
		}
	}
	for _, comp := range comps {
		g.growLocal(comp)
		g.local[comp] = max + 1
	}
}

func (g *GainCache) growLocal(comp int) {
	for len(g.local) <= comp {
		g.local = append(g.local, 0)
	}
}

func (g *GainCache) localOf(comp int) uint64 {
	if comp < len(g.local) {
		return g.local[comp]
	}
	return 0
}

// epochSeed is the deterministic seed root of the component's current
// epoch: a pure function of (session seed, global epoch, component,
// local epoch), so a cached gain and a from-scratch recompute of the
// same epoch always draw identical what-if streams.
func (g *GainCache) epochSeed(comp int) uint64 {
	s := uint64(stats.StreamSeed(g.base, g.global))
	s = uint64(stats.StreamSeed(s, uint64(comp)))
	return uint64(stats.StreamSeed(s, g.localOf(comp)))
}

// SweepSeed returns the seed of the component's incremental inference
// sweep for the current epoch; a distinct stream id keeps it disjoint
// from the scoring seeds of the same epoch.
func (g *GainCache) SweepSeed(comp int) int64 {
	return stats.StreamSeed(g.epochSeed(comp), 1)
}

// scoreBase returns the per-epoch base of the component's candidate
// scoring seeds for one gain family; candidate c reseeds its what-if
// chain from StreamSeed(scoreBase, c). The kind is mixed in so the
// information- and source-gain estimators draw independent Monte Carlo
// streams — the hybrid roulette compares the two families, and shared
// sampling noise would correlate their errors.
func (g *GainCache) scoreBase(kind gainKind, comp int) uint64 {
	return uint64(stats.StreamSeed(g.epochSeed(comp), 2+uint64(kind)))
}

// Hits returns the number of candidate-gain lookups served from cache.
func (g *GainCache) Hits() int64 { return g.hits }

// Misses returns the number of candidate-gain lookups that required a
// fresh what-if scoring round (in full-recompute mode, all of them).
func (g *GainCache) Misses() int64 { return g.misses }

// gain returns the cached gain of a candidate when its entry matches the
// component's current epoch (always a miss in full-recompute mode).
func (g *GainCache) gain(kind gainKind, claim, comp int) (float64, bool) {
	if g.full {
		g.misses++
		return 0, false
	}
	es := g.gains[kind]
	if claim < len(es) {
		e := es[claim]
		if e.global == g.global && e.local == g.localOf(comp) {
			g.hits++
			return e.gain, true
		}
	}
	g.misses++
	return 0, false
}

// storeGain records a freshly scored gain under the component's current
// epoch.
func (g *GainCache) storeGain(kind gainKind, claim, comp int, v float64) {
	for len(g.gains[kind]) <= claim {
		g.gains[kind] = append(g.gains[kind], gainEntry{})
	}
	g.gains[kind][claim] = gainEntry{global: g.global, local: g.localOf(comp), gain: v}
}

// entropyFor returns the component's cached "before" entropy for the
// current epoch, computing and storing it on a miss. Entropy reuse stays
// on even in full-recompute mode: the value is an exact pure function of
// unchanged component state, and what the mode exists to re-price is the
// what-if scoring.
func (g *GainCache) entropyFor(kind gainKind, comp int, compute func() float64) float64 {
	for len(g.entropies[kind]) <= comp {
		g.entropies[kind] = append(g.entropies[kind], gainEntry{})
	}
	e := &g.entropies[kind][comp]
	if e.global == g.global && e.local == g.localOf(comp) {
		return e.gain
	}
	h := compute()
	*e = gainEntry{global: g.global, local: g.localOf(comp), gain: h}
	return h
}

// Release drops every cached gain and entropy and keeps the epochs, so
// the seeds of every later sweep and scoring round stay what they would
// have been: a released cache only misses, and each miss re-scores, bit
// for bit, what the entry held. A finished session releases its cache
// (DESIGN.md §7); its image then carries empty tables.
func (g *GainCache) Release() {
	g.gains, g.entropies = [numGainKinds][]gainEntry{}, [numGainKinds][]gainEntry{}
}

// Entries returns the number of slots the cache's gain and entropy
// tables hold, stale ones included: what Release drops.
func (g *GainCache) Entries() int {
	n := 0
	for kind := range numGainKinds {
		n += len(g.gains[kind]) + len(g.entropies[kind])
	}
	return n
}

// AppendImage appends the cache's section of a session state image
// (DESIGN.md §10): every epoch, and the entries scored under the
// current global epoch. An entry from an older global epoch can never
// match again — epochs only grow — so it is dropped rather than
// carried; hit and miss counters are telemetry of the process that
// counted them and stay behind too.
func (g *GainCache) AppendImage(b []byte) []byte {
	b = wire.AppendInt(b, g.global)
	b = wire.AppendInt(b, uint64(len(g.local)))
	for _, e := range g.local {
		b = wire.AppendInt(b, e)
	}
	for kind := range numGainKinds {
		b = g.appendEntries(b, g.gains[kind])
		b = g.appendEntries(b, g.entropies[kind])
	}
	return b
}

// appendEntries appends one table: its length, which slots hold an
// entry of the current global epoch, and those entries' local epoch and
// value.
func (g *GainCache) appendEntries(b []byte, es []gainEntry) []byte {
	live := make([]bool, len(es))
	for i, e := range es {
		live[i] = e.global == g.global
	}
	b = wire.AppendBools(wire.AppendInt(b, uint64(len(es))), live)
	for _, e := range es {
		if e.global == g.global {
			b = wire.AppendF64(wire.AppendInt(b, e.local), e.gain)
		}
	}
	return b
}

// ReadGainCacheImage decodes a cache section into a fresh cache over
// seed's universe. Components never outnumber claims, so nClaims (from
// the corpus) bounds every table.
func ReadGainCacheImage(r *wire.Reader, seed int64, nClaims int) *GainCache {
	g := NewGainCache(seed)
	if g.global = r.Uvarint(); g.global == 0 {
		r.Fail(wire.ErrValue) // zeroed slots must never match
	}
	g.local = make([]uint64, r.Int(nClaims))
	for i := range g.local {
		g.local[i] = r.Uvarint()
	}
	for kind := range numGainKinds {
		g.gains[kind] = g.readEntries(r, nClaims)
		g.entropies[kind] = g.readEntries(r, nClaims)
	}
	return g
}

// readEntries decodes one table of at most limit slots.
func (g *GainCache) readEntries(r *wire.Reader, limit int) []gainEntry {
	live := make([]bool, r.Int(limit))
	r.Bools(live)
	es := make([]gainEntry, len(live))
	for i, ok := range live {
		if ok {
			es[i] = gainEntry{global: g.global, local: r.Uvarint(), gain: r.F64()}
		}
	}
	return es
}
