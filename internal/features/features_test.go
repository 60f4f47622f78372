package features

import (
	"math"
	"testing"

	"factcheck/internal/graph"
)

func TestStandardizeMoments(t *testing.T) {
	table := []float64{1, 10, 2, 20, 3, 30, 4, 40}
	mean, std := Standardize(table, 2)
	if math.Abs(mean[0]-2.5) > 1e-12 || math.Abs(mean[1]-25) > 1e-12 {
		t.Fatalf("means = %v", mean)
	}
	for j := 0; j < 2; j++ {
		var m, v float64
		for i := 0; i < 4; i++ {
			m += table[2*i+j]
		}
		m /= 4
		for i := 0; i < 4; i++ {
			v += (table[2*i+j] - m) * (table[2*i+j] - m)
		}
		v /= 4
		if math.Abs(m) > 1e-12 {
			t.Fatalf("column %d mean = %v after standardise", j, m)
		}
		if math.Abs(v-1) > 1e-9 {
			t.Fatalf("column %d variance = %v after standardise", j, v)
		}
	}
	if std[0] <= 0 || std[1] <= 0 {
		t.Fatalf("stds = %v", std)
	}
}

func TestStandardizeConstantColumn(t *testing.T) {
	table := []float64{5, 1, 5, 2, 5, 3}
	Standardize(table, 2)
	for i := 0; i < 3; i++ {
		if table[2*i] != 0 {
			t.Fatalf("constant column row %d = %v, want 0", i, table[2*i])
		}
	}
}

func TestStandardizeEmpty(t *testing.T) {
	mean, std := Standardize(nil, 2)
	if mean != nil || std != nil {
		t.Fatal("empty input should return nils")
	}
}

func TestComputeCentralityShapes(t *testing.T) {
	g := graph.NewDirected(6)
	for i := 1; i < 6; i++ {
		g.AddEdge(i, 0) // hub at node 0
	}
	c := ComputeCentrality(g)
	if len(c.PageRank) != 6 || len(c.Authority) != 6 || len(c.Hub) != 6 {
		t.Fatal("centrality vectors wrong length")
	}
	for i := 1; i < 6; i++ {
		if c.PageRank[0] <= c.PageRank[i] {
			t.Fatalf("node 0 should dominate PageRank: %v", c.PageRank)
		}
		if c.Authority[0] <= c.Authority[i] {
			t.Fatalf("node 0 should dominate authority: %v", c.Authority)
		}
	}
	for _, v := range c.PageRank {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("PageRank feature out of range: %v", v)
		}
	}
}

func TestActivity(t *testing.T) {
	a := Activity([]int{0, 1, 99})
	if a[0] != 0 {
		t.Fatalf("Activity(0) = %v", a[0])
	}
	if a[1] <= 0 || a[2] <= a[1] {
		t.Fatalf("Activity not monotone: %v", a)
	}
	if math.Abs(a[2]-math.Log1p(99)) > 1e-12 {
		t.Fatalf("Activity(99) = %v", a[2])
	}
}
