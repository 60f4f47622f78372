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
// lays the list out once as compressed sparse rows (CSR), int32 node ids
// with the rows of a direction sorted by length (see sliced). That call
// writes the layout into the graph, so a Directed is not safe for
// concurrent use.
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
	out, in  sliced
	outDeg   []float64 // out-degree per node, 1 for a dangling node
	dangling []int32   // the nodes with no out-edge, ascending
}

// sliced is one direction of the edge list as compressed sparse rows
// cut into slices of four rows, so that gathering sums four rows'
// addition chains at once instead of waiting out one row's adds before
// the next row's. Rows are sorted by length, so the four rows of a
// slice are nearly equally long; each slice is stored column by column
// and padded at the end of its shorter rows to its longest with the
// node id n, whose slot in every vector gathered from holds +0. A sum
// that starts from +0 is never −0, so adding +0 to it leaves every bit
// as it was: the padded rows add exactly as the rows themselves do.
// DESIGN.md §3 gives what the slices save over rows summed one at a
// time.
type sliced struct {
	node  [][4]int32 // per slice, the node of each row; n pads the last slice
	width []int32    // per slice, the length of its longest row
	cells [][4]int32 // per slice, width columns of one node id per row
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
	outLen := make([]int32, g.n)
	inLen := make([]int32, g.n)
	for e, from := range g.from {
		outLen[from]++
		inLen[g.to[e]]++
	}
	l := &layout{outDeg: make([]float64, g.n)}
	outAt, inAt := l.out.init(outLen), l.in.init(inLen)
	for e, from := range g.from {
		l.out.put(outAt, from, g.to[e])
		l.in.put(inAt, g.to[e], from)
	}
	for v, deg := range outLen {
		if deg > 0 {
			l.outDeg[v] = float64(deg)
		} else {
			l.outDeg[v] = 1
			l.dangling = append(l.dangling, int32(v))
		}
	}
	g.lay = l
	return l
}

// init lays out rows of the given lengths, one per node: sorted by
// length (a stable counting sort, so equal lengths keep node order),
// four to a slice, every cell the pad n until put fills it. It returns
// where each node's next entry goes: its cell times four plus its lane.
func (c *sliced) init(length []int32) (at []int32) {
	n := int32(len(length))
	longest := int32(0)
	for _, k := range length {
		longest = max(longest, k)
	}
	first := make([]int32, longest+2) // the first row of each length
	for _, k := range length {
		first[k+1]++
	}
	for k := 1; k < len(first); k++ {
		first[k] += first[k-1]
	}
	slices := (n + 3) / 4
	c.node = make([][4]int32, slices)
	c.width = make([]int32, slices)
	for r := range 4 * slices {
		c.node[r/4][r%4] = n
	}
	at = make([]int32, n)
	for v, k := range length {
		r := first[k]
		first[k]++
		c.node[r/4][r%4] = int32(v)
		c.width[r/4] = max(c.width[r/4], k)
		at[v] = r // for now, the row
	}
	start := make([]int32, slices) // each slice's first cell
	cells := int32(0)
	for i, w := range c.width {
		start[i] = cells
		cells += w
	}
	c.cells = make([][4]int32, cells)
	for i := range c.cells {
		c.cells[i] = [4]int32{n, n, n, n}
	}
	for v, r := range at {
		at[v] = 4*start[r/4] + r%4
	}
	return at
}

// put appends u to row v.
func (c *sliced) put(at []int32, v, u int32) {
	c.cells[at[v]/4][at[v]%4] = u
	at[v] += 4
}

// gather sets dst[v] to the sum of x over row v, added left to right
// from +0, for every node v; x[n] must be +0, and dst[n] is set to +0.
func (c *sliced) gather(dst, x []float64) {
	a := 0
	for i, w := range c.width {
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for _, col := range c.cells[a : a+int(w)] {
			s0 += x[col[0]]
			s1 += x[col[1]]
			s2 += x[col[2]]
			s3 += x[col[3]]
		}
		a += int(w)
		nodes := &c.node[i]
		dst[nodes[0]], dst[nodes[1]], dst[nodes[2]], dst[nodes[3]] = s0, s1, s2, s3
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
	// One slot past the nodes, +0 throughout: the pad of sliced rows.
	rank := make([]float64, g.n+1)
	next := make([]float64, g.n+1)
	share := make([]float64, g.n+1) // rank[v] / out-degree(v); unread for dangling v
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
		for v, sum := range next[:g.n] {
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
	return rank[:g.n:g.n]
}

// HITS computes hub and authority scores over iters iterations with L2
// normalisation each round. Both vectors are normalised to unit Euclidean
// length; for an empty graph both are nil.
func (g *Directed) HITS(iters int) (hubs, authorities []float64) {
	if g.n == 0 {
		return nil, nil
	}
	l := g.layout()
	// One slot past the nodes, +0 throughout: the pad of sliced rows.
	hubs = make([]float64, g.n+1)
	authorities = make([]float64, g.n+1)
	for v := range g.n {
		hubs[v] = 1
		authorities[v] = 1
	}
	for it := 0; it < iters; it++ {
		l.in.gather(authorities, hubs)
		normalize(authorities[:g.n])
		l.out.gather(hubs, authorities)
		normalize(hubs[:g.n])
	}
	return hubs[:g.n:g.n], authorities[:g.n:g.n]
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
