package graph

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"factcheck/internal/stats"
)

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if n := len(uf.Components()); n != 5 {
		t.Fatalf("initial count = %d", n)
	}
	if !uf.Union(0, 1) {
		t.Fatal("Union(0,1) should merge")
	}
	if uf.Union(0, 1) {
		t.Fatal("second Union(0,1) should be a no-op")
	}
	uf.Union(1, 2)
	if uf.Find(0) != uf.Find(2) {
		t.Fatal("0 and 2 should share a root")
	}
	if uf.Find(3) == uf.Find(0) {
		t.Fatal("3 should be separate")
	}
	if n := len(uf.Components()); n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
}

func TestUnionFindComponents(t *testing.T) {
	uf := NewUnionFind(6)
	uf.Union(0, 3)
	uf.Union(4, 5)
	comps := uf.Components()
	if len(comps) != 4 {
		t.Fatalf("components = %d, want 4", len(comps))
	}
	// Components are keyed by smallest member and members are sorted.
	if comps[0][0] != 0 || comps[0][1] != 3 {
		t.Fatalf("first component = %v", comps[0])
	}
	total := 0
	for _, c := range comps {
		total += len(c)
	}
	if total != 6 {
		t.Fatalf("component sizes sum to %d", total)
	}
}

func TestUnionFindTransitivityProperty(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := stats.NewRNG(seed)
		n := 2 + r.Intn(60)
		uf := NewUnionFind(n)
		type edge struct{ a, b int }
		var edges []edge
		for i := 0; i < n; i++ {
			e := edge{r.Intn(n), r.Intn(n)}
			edges = append(edges, e)
			uf.Union(e.a, e.b)
		}
		// Brute-force reachability must match Find equality.
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
			adj[i][i] = true
		}
		for _, e := range edges {
			adj[e.a][e.b] = true
			adj[e.b][e.a] = true
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if adj[i][k] && adj[k][j] {
						adj[i][j] = true
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if adj[i][j] != (uf.Find(i) == uf.Find(j)) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := NewDirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(3, 0) // 3 is a source, 0..2 form a cycle
	pr := g.PageRank(0.85, 100, 1e-12)
	sum := 0.0
	for _, p := range pr {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PageRank sums to %v", sum)
	}
	if pr[3] >= pr[0] {
		t.Fatalf("node with no in-links should rank lowest: %v", pr)
	}
}

func TestPageRankDanglingNodes(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2) // node 2 dangles
	pr := g.PageRank(0.85, 200, 1e-12)
	sum := 0.0
	for _, p := range pr {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum with dangling node = %v", sum)
	}
	for i, p := range pr {
		if p <= 0 {
			t.Fatalf("pr[%d] = %v, want positive", i, p)
		}
	}
}

func TestPageRankStarGraph(t *testing.T) {
	// Everyone links to the hub; hub must dominate.
	g := NewDirected(10)
	for i := 1; i < 10; i++ {
		g.AddEdge(i, 0)
	}
	pr := g.PageRank(0.85, 100, 1e-12)
	for i := 1; i < 10; i++ {
		if pr[0] <= pr[i] {
			t.Fatalf("hub rank %v not above leaf rank %v", pr[0], pr[i])
		}
	}
}

func TestPageRankUniformOnSymmetricCycle(t *testing.T) {
	g := NewDirected(5)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5)
	}
	pr := g.PageRank(0.85, 200, 1e-14)
	for i := 1; i < 5; i++ {
		if math.Abs(pr[i]-pr[0]) > 1e-9 {
			t.Fatalf("cycle ranks unequal: %v", pr)
		}
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	g := NewDirected(0)
	if pr := g.PageRank(0.85, 10, 1e-9); pr != nil {
		t.Fatalf("empty graph PageRank = %v", pr)
	}
}

func TestPageRankProperty(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := stats.NewRNG(seed)
		n := 1 + r.Intn(30)
		edges := make([][2]int, 2*n)
		for e := range edges {
			edges[e] = [2]int{r.Intn(n), r.Intn(n)}
		}
		slices.SortStableFunc(edges, func(a, b [2]int) int { return a[0] - b[0] })
		g := NewDirected(n)
		for _, e := range edges {
			g.AddEdge(e[0], e[1])
		}
		pr := g.PageRank(0.85, 80, 1e-10)
		sum := 0.0
		for _, p := range pr {
			if p < 0 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-6
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHITSAuthorityHub(t *testing.T) {
	// 0,1,2 all point at 3: 3 is the authority, 0..2 are hubs.
	g := NewDirected(4)
	g.AddEdge(0, 3)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	hubs, auth := g.HITS(30)
	if auth[3] <= auth[0] {
		t.Fatalf("node 3 should be the authority: %v", auth)
	}
	if hubs[3] >= hubs[0] {
		t.Fatalf("node 3 should not be a hub: %v", hubs)
	}
}

func TestHITSNormalised(t *testing.T) {
	g := NewDirected(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 2)
	g.AddEdge(4, 2)
	hubs, auth := g.HITS(25)
	norm := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x * x
		}
		return math.Sqrt(s)
	}
	if math.Abs(norm(hubs)-1) > 1e-9 {
		t.Fatalf("hub norm = %v", norm(hubs))
	}
	if math.Abs(norm(auth)-1) > 1e-9 {
		t.Fatalf("authority norm = %v", norm(auth))
	}
}

func TestHITSEmptyGraph(t *testing.T) {
	g := NewDirected(0)
	h, a := g.HITS(10)
	if h != nil || a != nil {
		t.Fatal("empty graph HITS should be nil")
	}
}

func TestDegrees(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	l := g.layout()
	deg := func(r rows, v int) int { return int(r.start[v+1] - r.start[v]) }
	if deg(l.out, 0) != 2 || deg(l.in, 2) != 2 || deg(l.in, 0) != 0 {
		t.Fatal("degree bookkeeping wrong")
	}
	if g.N() != 3 {
		t.Fatalf("N = %d", g.N())
	}
}

// TestAddEdgeRefusesBadEdges: an endpoint out of range and a source
// below the previous edge's both panic, and leave the graph as it was.
func TestAddEdgeRefusesBadEdges(t *testing.T) {
	for _, e := range [][2]int{{3, 0}, {0, -1}, {0, 2}} {
		g := NewDirected(3)
		g.AddEdge(1, 1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d, %d) after (1, 1) did not panic", e[0], e[1])
				}
			}()
			g.AddEdge(e[0], e[1])
		}()
		if len(g.from) != 1 {
			t.Errorf("a refused AddEdge(%d, %d) left %d edges, want 1", e[0], e[1], len(g.from))
		}
	}
}
