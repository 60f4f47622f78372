// Package ising computes exact partition functions, marginals and Shannon
// entropy for pairwise binary Markov random fields. It backs the exact
// uncertainty computation of Eq. 12: the paper notes that for acyclic
// models the partition function "is computed exactly using Ising methods"
// [57]; this package implements that computation via two-pass sum-product
// belief propagation, which is exact on forests. On graphs with cycles it
// falls back to loopy belief propagation with the Bethe free energy, a
// standard approximation. The brute-force reference implementation lives
// with the tests. Project maps a CRF and its labels onto such a field and
// Exact returns that field's entropy: the exact baseline of Fig. 2, which
// no served path runs (the serving code uses the Eq. 13 approximation,
// package entropy).
//
// The model over x ∈ {0,1}^n is
//
//	log P(x) = Σ_i θ_i·x_i + Σ_{(i,j)∈E} J_ij·[x_i = x_j] − log Z.
//
// θ_i is the unary log-odds field of variable i; J_ij > 0 rewards
// agreement between neighbours (the trust coupling between claims sharing
// a source).
package ising

import (
	"math"
)

// Edge couples variables I and J with agreement weight W.
type Edge struct {
	I, J int
	W    float64
}

// MRF is a pairwise binary Markov random field.
type MRF struct {
	Theta []float64
	Edges []Edge

	adj [][]int // edge indices per node
}

// New builds an MRF with n variables, zero fields and no edges.
func New(n int) *MRF {
	return &MRF{Theta: make([]float64, n)}
}

// AddEdge couples variables i and j with agreement weight w. Self loops
// are rejected because they are constants in a binary model.
func (m *MRF) AddEdge(i, j int, w float64) {
	if i == j {
		panic("ising: self loop")
	}
	m.Edges = append(m.Edges, Edge{I: i, J: j, W: w})
	m.adj = nil // invalidate
}

func (m *MRF) buildAdj() {
	if m.adj != nil {
		return
	}
	m.adj = make([][]int, len(m.Theta))
	for ei, e := range m.Edges {
		m.adj[e.I] = append(m.adj[e.I], ei)
		m.adj[e.J] = append(m.adj[e.J], ei)
	}
}

// IsForest reports whether the MRF's graph is acyclic (counting parallel
// edges as cycles).
func (m *MRF) IsForest() bool {
	n := len(m.Theta)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range m.Edges {
		ri, rj := find(e.I), find(e.J)
		if ri == rj {
			return false
		}
		parent[ri] = rj
	}
	return true
}

// Inference is the result of running belief propagation: the log
// partition function, per-variable marginals P(x_i = 1), and the Shannon
// entropy of the joint distribution (exact on forests, Bethe estimate
// otherwise).
type Inference struct {
	LogZ      float64
	Marginals []float64
	Entropy   float64
	Exact     bool
}

// Infer runs sum-product belief propagation. On forests the schedule is a
// two-pass exact computation; on loopy graphs it runs maxRounds
// synchronous rounds (default 50 when maxRounds <= 0) and reports
// Exact = false.
func (m *MRF) Infer(maxRounds int) Inference {
	m.buildAdj()
	n := len(m.Theta)
	exact := m.IsForest()
	if maxRounds <= 0 {
		maxRounds = 50
	}
	if exact {
		maxRounds = n + 1 // two passes suffice; synchronous BP converges in diameter rounds
		if maxRounds < 2 {
			maxRounds = 2
		}
	}

	// Messages in both directions per edge, in probability space over
	// {0,1}, normalised. msg[2*ei] is I->J, msg[2*ei+1] is J->I.
	cur := make([][2]float64, 2*len(m.Edges))
	next := make([][2]float64, 2*len(m.Edges))
	for i := range cur {
		cur[i] = [2]float64{0.5, 0.5}
	}

	// Unary potentials in probability space (unnormalised): ψ_i(0)=1,
	// ψ_i(1)=exp(θ_i); stored normalised for stability.
	unary := make([][2]float64, n)
	for i, th := range m.Theta {
		e := math.Exp(th - math.Max(th, 0))
		z := math.Exp(-math.Max(th, 0)) + e
		unary[i] = [2]float64{math.Exp(-math.Max(th, 0)) / z, e / z}
	}

	// incoming product at node v excluding edge ei, for value xv.
	prodExcl := func(msgs [][2]float64, v, exclEdge int, xv int) float64 {
		p := unary[v][xv]
		for _, ei := range m.adj[v] {
			if ei == exclEdge {
				continue
			}
			var incoming [2]float64
			if m.Edges[ei].I == v {
				incoming = msgs[2*ei+1] // J -> I
			} else {
				incoming = msgs[2*ei] // I -> J
			}
			p *= incoming[xv]
		}
		return p
	}

	for round := 0; round < maxRounds; round++ {
		maxDelta := 0.0
		for ei, e := range m.Edges {
			// pairwise factor ψ_e(xi, xj) = exp(W·[xi=xj]).
			agree := math.Exp(e.W)
			// I -> J
			for xj := 0; xj < 2; xj++ {
				s := 0.0
				for xi := 0; xi < 2; xi++ {
					f := 1.0
					if xi == xj {
						f = agree
					}
					s += prodExcl(cur, e.I, ei, xi) * f
				}
				next[2*ei][xj] = s
			}
			normalizeMsg(&next[2*ei])
			// J -> I
			for xi := 0; xi < 2; xi++ {
				s := 0.0
				for xj := 0; xj < 2; xj++ {
					f := 1.0
					if xi == xj {
						f = agree
					}
					s += prodExcl(cur, e.J, ei, xj) * f
				}
				next[2*ei+1][xi] = s
			}
			normalizeMsg(&next[2*ei+1])
			for k := 0; k < 2; k++ {
				d := math.Abs(next[2*ei][k] - cur[2*ei][k])
				if d > maxDelta {
					maxDelta = d
				}
				d = math.Abs(next[2*ei+1][k] - cur[2*ei+1][k])
				if d > maxDelta {
					maxDelta = d
				}
			}
		}
		copy(cur, next)
		if maxDelta < 1e-12 {
			break
		}
	}

	// Node beliefs.
	marg := make([]float64, n)
	nodeBelief := make([][2]float64, n)
	for v := 0; v < n; v++ {
		b0 := prodExcl(cur, v, -1, 0)
		b1 := prodExcl(cur, v, -1, 1)
		z := b0 + b1
		if z == 0 {
			b0, b1, z = 0.5, 0.5, 1
		}
		nodeBelief[v] = [2]float64{b0 / z, b1 / z}
		marg[v] = b1 / z
	}

	// Edge beliefs.
	edgeBelief := make([][2][2]float64, len(m.Edges))
	for ei, e := range m.Edges {
		agree := math.Exp(e.W)
		z := 0.0
		for xi := 0; xi < 2; xi++ {
			for xj := 0; xj < 2; xj++ {
				f := 1.0
				if xi == xj {
					f = agree
				}
				b := prodExcl(cur, e.I, ei, xi) * prodExcl(cur, e.J, ei, xj) * f
				edgeBelief[ei][xi][xj] = b
				z += b
			}
		}
		if z > 0 {
			for xi := 0; xi < 2; xi++ {
				for xj := 0; xj < 2; xj++ {
					edgeBelief[ei][xi][xj] /= z
				}
			}
		}
	}

	// Bethe free energy: exact on trees.
	// U = −E_b[score], H_Bethe = Σ_i (1−d_i) Σ b_i log b_i ... with the
	// convention log Z = H + E[score] where H is the Bethe entropy:
	// H = −Σ_e Σ b_e log b_e + Σ_i (d_i − 1) Σ b_i log b_i.
	hB := 0.0
	for ei := range m.Edges {
		for xi := 0; xi < 2; xi++ {
			for xj := 0; xj < 2; xj++ {
				b := edgeBelief[ei][xi][xj]
				if b > 1e-300 {
					hB -= b * math.Log(b)
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		deg := len(m.adj[v])
		if deg == 0 {
			// Isolated node contributes its own entropy.
			for k := 0; k < 2; k++ {
				b := nodeBelief[v][k]
				if b > 1e-300 {
					hB -= b * math.Log(b)
				}
			}
			continue
		}
		nodeH := 0.0
		for k := 0; k < 2; k++ {
			b := nodeBelief[v][k]
			if b > 1e-300 {
				nodeH -= b * math.Log(b)
			}
		}
		hB += float64(deg-1) * -nodeH // +(d−1)Σ b log b = −(d−1)·H_i
	}

	// Expected score under beliefs.
	u := 0.0
	for v := 0; v < n; v++ {
		u += m.Theta[v] * nodeBelief[v][1]
	}
	for ei, e := range m.Edges {
		u += e.W * (edgeBelief[ei][0][0] + edgeBelief[ei][1][1])
	}

	logZ := hB + u
	return Inference{LogZ: logZ, Marginals: marg, Entropy: hB, Exact: exact}
}

func normalizeMsg(msg *[2]float64) {
	z := msg[0] + msg[1]
	if z <= 0 {
		msg[0], msg[1] = 0.5, 0.5
		return
	}
	msg[0] /= z
	msg[1] /= z
}
