package gibbs

import (
	"sync/atomic"

	"factcheck/internal/factdb"
)

// SampleSet is a sequence Ω of sampled claim configurations, stored as
// bitsets. It provides the per-claim marginals of Eq. 7 and the
// joint-mode grounding instantiation of Eq. 10.
type SampleSet struct {
	nClaims int
	counts  []int32
	samples [][]uint64
}

// newDenseSampleSet preallocates a set of exactly samples zeroed
// configurations backed by one contiguous array, so sharded runs can fill
// sample k's bits concurrently (see recordShard) without any append
// bookkeeping.
func newDenseSampleSet(nClaims, samples int) *SampleSet {
	words := (nClaims + 63) / 64
	ss := &SampleSet{
		nClaims: nClaims,
		counts:  make([]int32, nClaims),
		samples: make([][]uint64, samples),
	}
	backing := make([]uint64, samples*words)
	for i := range ss.samples {
		ss.samples[i] = backing[i*words : (i+1)*words : (i+1)*words]
	}
	return ss
}

// recordShard stores sample k's bits for the given component members from
// x. Claims of different components may share a 64-bit word, so bits are
// merged with atomic OR — commutative, hence deterministic regardless of
// which shard records first. The per-claim counts are indexed by claim and
// each claim belongs to exactly one shard, so they need no atomics.
func (ss *SampleSet) recordShard(k int, members []int32, x []bool) {
	words := ss.samples[k]
	for _, c := range members {
		if x[c] {
			atomic.OrUint64(&words[c/64], 1<<(uint(c)%64))
			ss.counts[c]++
		}
	}
}

// SetShard overwrites sample k's bits for the given component members
// from x, keeping the per-claim counts consistent. Unlike recordShard it
// both clears and sets bits (the sample already holds a configuration
// for these claims) and runs single-threaded, so no atomics are needed.
// It is the write path of the component-restricted incremental refresh:
// after a label lands in one component, only that component's slice of
// Ω* is resampled while every other component's bits stay untouched.
func (ss *SampleSet) SetShard(k int, members []int32, x []bool) {
	words := ss.samples[k]
	for _, c := range members {
		mask := uint64(1) << (uint(c) % 64)
		was := words[c/64]&mask != 0
		if x[c] == was {
			continue
		}
		if x[c] {
			words[c/64] |= mask
			ss.counts[c]++
		} else {
			words[c/64] &^= mask
			ss.counts[c]--
		}
	}
}

// Grow extends the set to cover n additional claims. The new claims'
// bits start cleared (counts zero), so their marginals read 0 until
// their components are resampled — callers refresh every component a
// corpus delta dirtied (they all contain the new claims) before the
// marginals are consumed. Samples whose word count grows are
// reallocated, detaching them from any shared dense backing.
func (ss *SampleSet) Grow(n int) {
	ss.nClaims += n
	ss.counts = append(ss.counts, make([]int32, n)...)
	words := (ss.nClaims + 63) / 64
	for i, s := range ss.samples {
		if len(s) < words {
			ns := make([]uint64, words)
			copy(ns, s)
			ss.samples[i] = ns
		}
	}
}

// NumSamples returns |Ω|.
func (ss *SampleSet) NumSamples() int { return len(ss.samples) }

// NumClaims returns the number of claims the set covers.
func (ss *SampleSet) NumClaims() int { return ss.nClaims }

// Marginal returns the ratio of samples in which claim c is credible
// (Eq. 7); 0.5 when the set is empty.
func (ss *SampleSet) Marginal(c int) float64 {
	if len(ss.samples) == 0 {
		return 0.5
	}
	return float64(ss.counts[c]) / float64(len(ss.samples))
}

// bit returns sample si's value for claim c.
func (ss *SampleSet) bit(si, c int) bool {
	return ss.samples[si][c/64]&(1<<(c%64)) != 0
}

// Decide instantiates a grounding from the sample set per Eq. 10: within
// each connected component the most frequent sampled configuration wins
// (the joint distribution factorises over components), and labelled
// claims always carry their user input. When every sampled configuration
// of a component is unique (no mode), the per-claim majority is used —
// the natural fallback noted in DESIGN.md. An empty sample set grounds by
// thresholding state probabilities at 0.5.
func Decide(db *factdb.DB, state *factdb.State, ss *SampleSet) factdb.Grounding {
	g := factdb.NewGrounding(db.NumClaims)
	if ss == nil || ss.NumSamples() == 0 {
		for c := 0; c < db.NumClaims; c++ {
			g[c] = state.P(c) >= 0.5
		}
		applyLabels(state, g)
		return g
	}
	for comp := 0; comp < db.NumComponents(); comp++ {
		members := db.ComponentMembers(comp)
		best, unique := ss.componentMode(members)
		if unique {
			// No repeated configuration: majority per claim.
			for _, c := range members {
				g[c] = ss.Marginal(int(c)) >= 0.5
			}
			continue
		}
		for _, c := range members {
			g[c] = ss.bit(best, int(c))
		}
	}
	applyLabels(state, g)
	return g
}

// componentMode returns the index of the sample holding the most frequent
// configuration restricted to members; unique reports that every
// configuration appeared exactly once.
func (ss *SampleSet) componentMode(members []int32) (best int, unique bool) {
	type entry struct {
		count int
		first int
	}
	counts := make(map[uint64]*entry, len(ss.samples))
	bestCount, bestFirst := 0, 0
	for si := range ss.samples {
		h := ss.hashComponent(si, members)
		e, ok := counts[h]
		if !ok {
			e = &entry{first: si}
			counts[h] = e
		}
		e.count++
		if e.count > bestCount || (e.count == bestCount && e.first < bestFirst) {
			bestCount = e.count
			bestFirst = e.first
		}
	}
	return bestFirst, bestCount <= 1
}

// hashComponent hashes sample si restricted to the member claims
// (FNV-1a over the member bits packed into bytes).
func (ss *SampleSet) hashComponent(si int, members []int32) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	var acc uint64
	bits := 0
	for _, c := range members {
		acc <<= 1
		if ss.bit(si, int(c)) {
			acc |= 1
		}
		bits++
		if bits == 64 {
			for k := 0; k < 8; k++ {
				h ^= (acc >> (8 * k)) & 0xff
				h *= prime
			}
			acc, bits = 0, 0
		}
	}
	if bits > 0 {
		for k := 0; k < 8; k++ {
			h ^= (acc >> (8 * k)) & 0xff
			h *= prime
		}
	}
	return h
}

func applyLabels(state *factdb.State, g factdb.Grounding) {
	for c := range g {
		if v, ok := state.Label(c); ok {
			g[c] = v
		}
	}
}
