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

// Directed is a directed graph over nodes 0..n-1 stored as adjacency
// lists. It is the substrate for the centrality measures used as source
// features.
type Directed struct {
	n   int
	out [][]int
	in  [][]int
}

// NewDirected creates an empty directed graph with n nodes.
func NewDirected(n int) *Directed {
	return &Directed{n: n, out: make([][]int, n), in: make([][]int, n)}
}

// N returns the number of nodes.
func (g *Directed) N() int { return g.n }

// AddEdge inserts the edge from -> to. Self loops and parallel edges are
// permitted; centrality treats parallel edges as weight.
func (g *Directed) AddEdge(from, to int) {
	g.out[from] = append(g.out[from], to)
	g.in[to] = append(g.in[to], from)
}

// PageRank computes the PageRank vector with damping factor d over iters
// iterations (or until max change < tol). Dangling nodes distribute their
// mass uniformly. The result sums to 1.
func (g *Directed) PageRank(d float64, iters int, tol float64) []float64 {
	if g.n == 0 {
		return nil
	}
	rank := make([]float64, g.n)
	next := make([]float64, g.n)
	inv := 1 / float64(g.n)
	for i := range rank {
		rank[i] = inv
	}
	for it := 0; it < iters; it++ {
		dangling := 0.0
		for v := 0; v < g.n; v++ {
			if len(g.out[v]) == 0 {
				dangling += rank[v]
			}
			next[v] = 0
		}
		for v := 0; v < g.n; v++ {
			if deg := len(g.out[v]); deg > 0 {
				share := rank[v] / float64(deg)
				for _, w := range g.out[v] {
					next[w] += share
				}
			}
		}
		delta := 0.0
		base := (1-d)*inv + d*dangling*inv
		for v := 0; v < g.n; v++ {
			nv := base + d*next[v]
			if diff := nv - rank[v]; diff > delta {
				delta = diff
			} else if -diff > delta {
				delta = -diff
			}
			next[v] = nv
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
	hubs = make([]float64, g.n)
	authorities = make([]float64, g.n)
	for i := range hubs {
		hubs[i] = 1
		authorities[i] = 1
	}
	for it := 0; it < iters; it++ {
		for v := 0; v < g.n; v++ {
			s := 0.0
			for _, w := range g.in[v] {
				s += hubs[w]
			}
			authorities[v] = s
		}
		normalize(authorities)
		for v := 0; v < g.n; v++ {
			s := 0.0
			for _, w := range g.out[v] {
				s += authorities[w]
			}
			hubs[v] = s
		}
		normalize(hubs)
	}
	return hubs, authorities
}

func normalize(v []float64) {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	if s == 0 {
		return
	}
	inv := 1 / math.Sqrt(s)
	for i := range v {
		v[i] *= inv
	}
}
