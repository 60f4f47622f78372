// Package graph provides the graph substrate of the fact checking
// framework: union-find based connected components over the claim-source
// structure of the CRF (used by the parallel+partition optimisation of
// §5.1) and generic directed-graph centrality (PageRank, HITS) used for
// source features (§8.1).
package graph

import "math"

// UnionFind is a disjoint-set forest with union by rank and path
// compression.
type UnionFind struct {
	parent []int
	rank   []int
}

// NewUnionFind creates n singleton sets labelled 0..n-1.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b and reports whether they were distinct.
func (u *UnionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

// Components groups the n elements by their set representative. The outer
// slice is ordered by smallest member; members within a component are in
// ascending order.
func (u *UnionFind) Components() [][]int {
	byRoot := make(map[int][]int)
	order := make([]int, 0)
	for i := range u.parent {
		r := u.Find(i)
		if _, ok := byRoot[r]; !ok {
			order = append(order, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}
	out := make([][]int, 0, len(order))
	for _, r := range order {
		out = append(out, byRoot[r])
	}
	return out
}

// Directed is a directed graph over nodes 0..n-1, the substrate for the
// centrality measures used as source features. AddEdge appends to an
// edge list, sources non-decreasing; the first centrality call after it
// lays the list out once as compressed sparse rows (CSR) of int32 node
// ids. That call writes the layout into the graph, so a Directed is not
// safe for concurrent use.
type Directed struct {
	n        int
	from, to []int32 // the edge list, in insertion order, sources non-decreasing
	lay      *layout // nil until a centrality call needs it
}

// layout is a Directed's edge list as the rows its centrality measures
// sum over.
type layout struct {
	// out is the targets by source and in the sources by target, both in
	// insertion order. Since sources arrive non-decreasing, an in-row is
	// ordered by source, and within one source by position in its
	// out-row: the order in which pushing every source's share along its
	// out-row, sources ascending, adds into a target.
	out, in  rows
	outDeg   []float64 // out-degree per node, 1 for a dangling node
	dangling []int32   // the nodes with no out-edge, ascending
}

// rows is one direction of the edge list as compressed sparse rows: row
// v is ids[start[v]:start[v+1]].
type rows struct {
	start []int32 // n+1 row bounds
	ids   []int32
}

// NewDirected creates an empty directed graph with n nodes.
func NewDirected(n int) *Directed {
	return &Directed{n: n}
}

// N returns the number of nodes.
func (g *Directed) N() int { return g.n }

// AddEdge inserts the edge from -> to. Edges are added source by
// source: a source smaller than the previous edge's panics, as an
// endpoint out of range does. Self loops and parallel edges are
// permitted; centrality treats parallel edges as weight.
func (g *Directed) AddEdge(from, to int) {
	if uint(from) >= uint(g.n) || uint(to) >= uint(g.n) {
		panic("graph: edge endpoint out of range")
	}
	if k := len(g.from); k > 0 && int32(from) < g.from[k-1] {
		panic("graph: edge source below the previous edge's")
	}
	g.from = append(g.from, int32(from))
	g.to = append(g.to, int32(to))
	g.lay = nil
}

// layout returns the rows of the edge list, laying them out on the
// first call after an AddEdge.
func (g *Directed) layout() *layout {
	if g.lay != nil {
		return g.lay
	}
	l := &layout{out: newRows(g.n, g.from, g.to), in: newRows(g.n, g.to, g.from), outDeg: make([]float64, g.n)}
	for v := range g.n {
		if deg := l.out.start[v+1] - l.out.start[v]; deg > 0 {
			l.outDeg[v] = float64(deg)
		} else {
			l.outDeg[v] = 1
			l.dangling = append(l.dangling, int32(v))
		}
	}
	g.lay = l
	return l
}

// newRows lays out the edges key[e] -> val[e] over n nodes as rows by
// key, each row in edge order.
func newRows(n int, key, val []int32) rows {
	r := rows{start: make([]int32, n+1), ids: make([]int32, len(key))}
	for _, k := range key {
		r.start[k]++
	}
	for v := 1; v <= n; v++ {
		r.start[v] += r.start[v-1] // now the end of row v
	}
	for e := len(key) - 1; e >= 0; e-- { // last edge first, into the row's last free slot
		r.start[key[e]]--
		r.ids[r.start[key[e]]] = val[e]
	}
	return r
}

// gather sets dst[v] to the sum of x over row v, added left to right
// from +0, for every node v.
func (r rows) gather(dst, x []float64) {
	lo := r.start[0]
	for v, hi := range r.start[1:] {
		s := 0.0
		for _, u := range r.ids[lo:hi] {
			s += x[u]
		}
		dst[v] = s
		lo = hi
	}
}

// PageRank computes the PageRank vector with damping factor d over iters
// iterations (or until max change < tol). Dangling nodes distribute their
// mass uniformly. The result sums to 1.
//
// Each round pulls every node's in-row in (source, out-position) order,
// the order in which pushing each source's share to its targets,
// sources ascending, adds into a target: every sum is the push form's
// sequence of additions from +0, so every bit is the push form's.
func (g *Directed) PageRank(d float64, iters int, tol float64) []float64 {
	if g.n == 0 {
		return nil
	}
	l := g.layout()
	rank := make([]float64, g.n)
	next := make([]float64, g.n)
	share := make([]float64, g.n) // rank[v] / out-degree(v); unread for dangling v
	inv := 1 / float64(g.n)
	for v := range g.n {
		rank[v] = inv
		share[v] = inv / l.outDeg[v]
	}
	for it := 0; it < iters; it++ {
		dangling := 0.0
		for _, v := range l.dangling {
			dangling += rank[v]
		}
		l.in.gather(next, share)
		delta := 0.0
		base := float64((1-d)*inv) + float64(d*dangling*inv)
		for v, sum := range next {
			nv := base + float64(d*sum)
			if diff := nv - rank[v]; diff > delta {
				delta = diff
			} else if -diff > delta {
				delta = -diff
			}
			next[v] = nv
			share[v] = nv / l.outDeg[v]
		}
		rank, next = next, rank
		if delta < tol {
			break
		}
	}
	return rank
}

// HITS computes hub and authority scores over iters iterations with L2
// normalisation each round. Both vectors are normalised to unit Euclidean
// length; for an empty graph both are nil.
func (g *Directed) HITS(iters int) (hubs, authorities []float64) {
	if g.n == 0 {
		return nil, nil
	}
	l := g.layout()
	hubs = make([]float64, g.n)
	authorities = make([]float64, g.n)
	for v := range g.n {
		hubs[v] = 1
		authorities[v] = 1
	}
	for it := 0; it < iters; it++ {
		l.in.gather(authorities, hubs)
		normalize(authorities)
		l.out.gather(hubs, authorities)
		normalize(hubs)
	}
	return hubs, authorities
}

func normalize(v []float64) {
	s := 0.0
	for _, x := range v {
		s += float64(x * x)
	}
	if s == 0 {
		return
	}
	inv := 1 / math.Sqrt(s)
	for i := range v {
		v[i] *= inv
	}
}
