// Package router is the placement layer of the scaled-out serving
// stack: it spreads sessions across a fleet of factcheck-server
// backends with a consistent-hash ring, probes backend health, proxies
// the single-server HTTP API unchanged, and moves live sessions
// between backends (drain, rebalance, failover) without breaking the
// bit-identical-trace contract the execution layer guarantees.
//
// The split mirrors the repo's standing layering: internal/service is
// the execution layer (one Manager, one worker budget, one session
// cap), and this package owns only placement — which backend a session
// id lives on, never what the session computes. Session state moves as
// the same portable checkpoint+WAL record that crash recovery replays,
// so a migrated session is rebuilt by exactly the code path a restart
// uses, and determinism holds across the move.
package router

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ringPoint is one virtual node: a hash position owned by a member.
type ringPoint struct {
	hash   uint64
	member string
}

// vnodes is the virtual nodes each member places on the ring: plenty
// for a small fleet (~9% expected imbalance at 3 members).
const vnodes = 64

// Ring is a consistent-hash ring with virtual nodes. Each member
// contributes vnodes points; a key belongs to the member owning the
// first point clockwise of the key's hash. Virtual nodes smooth the
// load split (with v points per member the expected imbalance shrinks
// like 1/sqrt(v)) and spread a removed member's keys across everyone
// remaining instead of dumping them on one successor. Not safe for
// concurrent use; the Router guards it with its own mutex.
type Ring struct {
	points  []ringPoint
	members map[string]bool
}

// NewRing returns an empty ring.
func NewRing() *Ring {
	return &Ring{members: make(map[string]bool)}
}

// ringHash is FNV-1a 64 followed by a splitmix64-style avalanche
// finalizer. FNV alone is fast, dependency-free and stable across
// processes and platforms — ring layout must not depend on process
// randomness, or two routers over the same fleet would disagree on
// placement — but it diffuses poorly for short keys differing only in
// their final bytes: sequential ids like "sess-1", "sess-2", … hash
// into a tight cluster, which can drop an entire caller-pinned id
// family onto one member's arcs. The finalizer avalanches every input
// bit across the word so nearby keys spread uniformly, and is itself a
// pure function of the bytes, so cross-process agreement is preserved.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a member's virtual nodes. Adding a present member is a
// no-op.
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash:   ringHash(member + "#" + strconv.Itoa(i)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on the member so equal hashes (vanishingly rare,
		// but possible) still order deterministically.
		return r.points[i].member < r.points[j].member
	})
}

// Remove deletes a member and its virtual nodes. Removing an absent
// member is a no-op.
func (r *Ring) Remove(member string) {
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the member owning key (ok = false on an empty ring).
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= h
	})
	if i == len(r.points) {
		i = 0 // wrap: past the last point means the first point owns it
	}
	return r.points[i].member, true
}

// Members returns the current members, sorted.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }
