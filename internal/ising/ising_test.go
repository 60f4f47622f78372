package ising

import (
	"math"
	"testing"
	"testing/quick"

	"factcheck/internal/stats"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleVariable(t *testing.T) {
	m := New(1)
	m.Theta[0] = math.Log(3) // P(x=1) = 3/4
	inf := m.Infer(0)
	if !inf.Exact {
		t.Fatal("single variable should be exact")
	}
	if !almostEqual(inf.Marginals[0], 0.75, 1e-9) {
		t.Fatalf("marginal = %v, want 0.75", inf.Marginals[0])
	}
	wantH := stats.BinaryEntropy(0.75)
	if !almostEqual(inf.Entropy, wantH, 1e-9) {
		t.Fatalf("entropy = %v, want %v", inf.Entropy, wantH)
	}
	if !almostEqual(inf.LogZ, math.Log(4), 1e-9) {
		t.Fatalf("logZ = %v, want log 4", inf.LogZ)
	}
}

func TestIndependentVariablesEntropyAdds(t *testing.T) {
	m := New(3)
	m.Theta = []float64{0, math.Log(2), -math.Log(4)}
	inf := m.Infer(0)
	want := 0.0
	for _, th := range m.Theta {
		p := 1 / (1 + math.Exp(-th))
		want += stats.BinaryEntropy(p)
	}
	if !almostEqual(inf.Entropy, want, 1e-9) {
		t.Fatalf("entropy = %v, want %v", inf.Entropy, want)
	}
}

func TestChainMatchesBruteForce(t *testing.T) {
	m := New(4)
	m.Theta = []float64{0.5, -0.3, 0.8, 0.1}
	m.AddEdge(0, 1, 0.7)
	m.AddEdge(1, 2, -0.4)
	m.AddEdge(2, 3, 1.2)
	bp := m.Infer(0)
	bf := m.BruteForce()
	if !bp.Exact {
		t.Fatal("chain should be exact")
	}
	if !almostEqual(bp.LogZ, bf.LogZ, 1e-6) {
		t.Fatalf("logZ: bp=%v bf=%v", bp.LogZ, bf.LogZ)
	}
	if !almostEqual(bp.Entropy, bf.Entropy, 1e-6) {
		t.Fatalf("entropy: bp=%v bf=%v", bp.Entropy, bf.Entropy)
	}
	for i := range bp.Marginals {
		if !almostEqual(bp.Marginals[i], bf.Marginals[i], 1e-6) {
			t.Fatalf("marginal %d: bp=%v bf=%v", i, bp.Marginals[i], bf.Marginals[i])
		}
	}
}

func TestStarMatchesBruteForce(t *testing.T) {
	m := New(5)
	m.Theta = []float64{0.2, -0.5, 0.9, 0, 0.3}
	for leaf := 1; leaf < 5; leaf++ {
		m.AddEdge(0, leaf, 0.5)
	}
	bp := m.Infer(0)
	bf := m.BruteForce()
	if !almostEqual(bp.LogZ, bf.LogZ, 1e-6) || !almostEqual(bp.Entropy, bf.Entropy, 1e-6) {
		t.Fatalf("star mismatch: bp=%+v bf=%+v", bp, bf)
	}
}

func TestRandomForestsMatchBruteForce(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := stats.NewRNG(seed)
		n := 2 + r.Intn(9)
		m := New(n)
		for i := 0; i < n; i++ {
			m.Theta[i] = 2 * r.NormFloat64()
		}
		// Random forest: attach each node (past 0) to an earlier node
		// with probability 0.8.
		for i := 1; i < n; i++ {
			if r.Bernoulli(0.8) {
				m.AddEdge(r.Intn(i), i, 1.5*r.NormFloat64())
			}
		}
		if !m.IsForest() {
			return false
		}
		bp := m.Infer(0)
		bf := m.BruteForce()
		if !bp.Exact {
			return false
		}
		if !almostEqual(bp.LogZ, bf.LogZ, 1e-5) || !almostEqual(bp.Entropy, bf.Entropy, 1e-5) {
			return false
		}
		for i := range bp.Marginals {
			if !almostEqual(bp.Marginals[i], bf.Marginals[i], 1e-5) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsForest(t *testing.T) {
	m := New(3)
	m.AddEdge(0, 1, 1)
	m.AddEdge(1, 2, 1)
	if !m.IsForest() {
		t.Fatal("path is a forest")
	}
	m.AddEdge(0, 2, 1)
	if m.IsForest() {
		t.Fatal("triangle is not a forest")
	}
}

func TestLoopyGraphApproximation(t *testing.T) {
	// A triangle: BP is approximate but must stay sane.
	m := New(3)
	m.Theta = []float64{0.3, -0.2, 0.1}
	m.AddEdge(0, 1, 0.4)
	m.AddEdge(1, 2, 0.4)
	m.AddEdge(0, 2, 0.4)
	bp := m.Infer(200)
	if bp.Exact {
		t.Fatal("triangle must be flagged inexact")
	}
	bf := m.BruteForce()
	// Loose agreement: weak couplings keep loopy BP accurate.
	if !almostEqual(bp.LogZ, bf.LogZ, 0.05) {
		t.Fatalf("loopy logZ=%v too far from exact %v", bp.LogZ, bf.LogZ)
	}
	for i := range bp.Marginals {
		if !almostEqual(bp.Marginals[i], bf.Marginals[i], 0.05) {
			t.Fatalf("loopy marginal %d=%v vs %v", i, bp.Marginals[i], bf.Marginals[i])
		}
	}
}

func TestStrongCouplingAligns(t *testing.T) {
	// With a huge agreement reward and one strongly positive field, the
	// neighbour's marginal must follow.
	m := New(2)
	m.Theta = []float64{4, 0}
	m.AddEdge(0, 1, 6)
	inf := m.Infer(0)
	if inf.Marginals[1] < 0.9 {
		t.Fatalf("coupled marginal = %v, want > 0.9", inf.Marginals[1])
	}
}

func TestNegativeCouplingRepels(t *testing.T) {
	m := New(2)
	m.Theta = []float64{4, 0}
	m.AddEdge(0, 1, -6)
	inf := m.Infer(0)
	if inf.Marginals[1] > 0.1 {
		t.Fatalf("anti-coupled marginal = %v, want < 0.1", inf.Marginals[1])
	}
}

func TestEntropyBounds(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := stats.NewRNG(seed)
		n := 1 + r.Intn(8)
		m := New(n)
		for i := 0; i < n; i++ {
			m.Theta[i] = 3 * r.NormFloat64()
		}
		for i := 1; i < n; i++ {
			if r.Bernoulli(0.7) {
				m.AddEdge(r.Intn(i), i, r.NormFloat64())
			}
		}
		inf := m.Infer(0)
		return inf.Entropy >= -1e-9 && inf.Entropy <= float64(n)*math.Log(2)+1e-9
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScore(t *testing.T) {
	m := New(2)
	m.Theta = []float64{1, 2}
	m.AddEdge(0, 1, 0.5)
	if got := m.Score([]bool{true, true}); !almostEqual(got, 3.5, 1e-12) {
		t.Fatalf("Score = %v", got)
	}
	if got := m.Score([]bool{true, false}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Score = %v", got)
	}
	if got := m.Score([]bool{false, false}); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("Score = %v", got)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self loop did not panic")
		}
	}()
	New(2).AddEdge(1, 1, 1)
}

func TestBruteForceLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BruteForce on 25 vars did not panic")
		}
	}()
	New(25).BruteForce()
}

func TestUniformDistributionMaxEntropy(t *testing.T) {
	m := New(4)
	m.AddEdge(0, 1, 0)
	m.AddEdge(2, 3, 0)
	inf := m.Infer(0)
	want := 4 * math.Log(2)
	if !almostEqual(inf.Entropy, want, 1e-9) {
		t.Fatalf("uniform entropy = %v, want %v", inf.Entropy, want)
	}
	if !almostEqual(inf.LogZ, want, 1e-9) {
		t.Fatalf("uniform logZ = %v, want %v", inf.LogZ, want)
	}
}

// Score returns the unnormalised log-probability Σθ_i x_i + ΣJ_ij[x_i=x_j].
func (m *MRF) Score(x []bool) float64 {
	s := 0.0
	for i, xi := range x {
		if xi {
			s += m.Theta[i]
		}
	}
	for _, e := range m.Edges {
		if x[e.I] == x[e.J] {
			s += e.W
		}
	}
	return s
}

// BruteForce enumerates all 2^n configurations and returns the exact log
// partition function, marginals and entropy. It panics for n > 24; it is
// the test oracle for Infer.
func (m *MRF) BruteForce() Inference {
	n := len(m.Theta)
	if n > 24 {
		panic("ising: BruteForce limited to 24 variables")
	}
	total := 1 << n
	x := make([]bool, n)
	scores := make([]float64, total)
	logZ := math.Inf(-1)
	for mask := 0; mask < total; mask++ {
		for i := 0; i < n; i++ {
			x[i] = mask&(1<<i) != 0
		}
		s := m.Score(x)
		scores[mask] = s
		logZ = logSumExp(logZ, s)
	}
	marg := make([]float64, n)
	entropy := 0.0
	for mask := 0; mask < total; mask++ {
		p := math.Exp(scores[mask] - logZ)
		if p > 1e-300 {
			entropy -= p * math.Log(p)
		}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				marg[i] += p
			}
		}
	}
	return Inference{LogZ: logZ, Marginals: marg, Entropy: entropy, Exact: true}
}

func logSumExp(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if math.IsInf(a, -1) {
		return b
	}
	return a + math.Log1p(math.Exp(b-a))
}
