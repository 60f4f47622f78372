package graph

import "math"

// referenceDirected is the adjacency-list graph Directed replaced, kept
// verbatim as the definition its PageRank and HITS bits are checked
// against — PageRank pushes each source's share into its targets in
// source order, HITS sums every in- and out-list in insertion order —
// except that its multiply-adds are rounded explicitly: amd64 compiled
// them that way already, and arm64 would otherwise fuse them (ROADMAP
// item 11).
type referenceDirected struct {
	n   int
	out [][]int
	in  [][]int
}

func newReferenceDirected(n int) *referenceDirected {
	return &referenceDirected{n: n, out: make([][]int, n), in: make([][]int, n)}
}

func (g *referenceDirected) AddEdge(from, to int) {
	g.out[from] = append(g.out[from], to)
	g.in[to] = append(g.in[to], from)
}

func (g *referenceDirected) PageRank(d float64, iters int, tol float64) []float64 {
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
		base := float64((1-d)*inv) + float64(d*dangling*inv)
		for v := 0; v < g.n; v++ {
			nv := base + float64(d*next[v])
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

func (g *referenceDirected) HITS(iters int) (hubs, authorities []float64) {
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
		referenceNormalize(authorities)
		for v := 0; v < g.n; v++ {
			s := 0.0
			for _, w := range g.out[v] {
				s += authorities[w]
			}
			hubs[v] = s
		}
		referenceNormalize(hubs)
	}
	return hubs, authorities
}

func referenceNormalize(v []float64) {
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
