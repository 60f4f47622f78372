package graph

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"factcheck/internal/stats"
)

// centralityArgs are the parameters one comparison runs PageRank and
// HITS with.
type centralityArgs struct {
	d         float64
	prIters   int
	tol       float64
	hitsIters int
}

// sameCentrality builds the graph the edge list describes both ways,
// adding the edges sorted by source (stably, so one source's keep their
// order), and reports the first output whose bits differ from the
// reference's.
func sameCentrality(t *testing.T, n int, edges [][2]int, a centralityArgs) {
	t.Helper()
	slices.SortStableFunc(edges, func(a, b [2]int) int { return a[0] - b[0] })
	g, ref := NewDirected(n), newReferenceDirected(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
		ref.AddEdge(e[0], e[1])
	}
	sameBits(t, "PageRank", g.PageRank(a.d, a.prIters, a.tol), ref.PageRank(a.d, a.prIters, a.tol))
	hubs, auth := g.HITS(a.hitsIters)
	refHubs, refAuth := ref.HITS(a.hitsIters)
	sameBits(t, "hubs", hubs, refHubs)
	sameBits(t, "authorities", auth, refAuth)
	if t.Failed() {
		t.Fatalf("n=%d, %d edges, %+v: %v", n, len(edges), a, edges)
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) || (got == nil) != (want == nil) {
		t.Errorf("%s: %d values (nil %v), reference %d (nil %v)", what, len(got), got == nil, len(want), want == nil)
		return
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			return
		}
	}
}

// TestCentralityMatchesReference holds PageRank and HITS to the
// adjacency-list reference bit for bit on random graphs of every size
// up to 300 nodes: with dangling nodes, self loops and parallel edges,
// drawn in any order and added by source (as the corpus generator adds
// them), and PageRank run for zero rounds, to convergence at a
// tolerance that exits early, and to its round cap.
func TestCentralityMatchesReference(t *testing.T) {
	r := stats.NewRNG(40)
	for n := 0; n <= 300; n++ {
		var edges [][2]int
		if n > 0 {
			hub := r.Intn(n) // a popular target, for long in-rows
			for k := r.Intn(4*n + 1); k > 0; k-- {
				from, to := r.Intn(n), r.Intn(n)
				switch r.Intn(8) {
				case 0:
					to = from // self loop
				case 1, 2:
					to = hub
				case 3:
					if len(edges) > 0 {
						edges = append(edges, edges[r.Intn(len(edges))]) // parallel edge
						continue
					}
				}
				if from%5 != 4 { // every fifth node dangles
					edges = append(edges, [2]int{from, to})
				}
			}
		}
		args := centralityArgs{d: 0.85, prIters: 60, tol: 1e-10, hitsIters: 30}
		switch n % 4 {
		case 1:
			args.prIters, args.hitsIters = 0, 0
		case 2:
			args.tol = 1e-3 // exits after a few rounds
		case 3:
			args.tol, args.d = 0, 0.5 // runs every round
		}
		sameCentrality(t, n, edges, args)
	}
}

// TestLayoutFollowsAddEdge checks that an edge added after a
// centrality call is in the next one's rows.
func TestLayoutFollowsAddEdge(t *testing.T) {
	g, ref := NewDirected(4), newReferenceDirected(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {1, 0}, {3, 1}} {
		g.AddEdge(e[0], e[1])
		ref.AddEdge(e[0], e[1])
		sameBits(t, "PageRank", g.PageRank(0.85, 60, 0), ref.PageRank(0.85, 60, 0))
		hubs, auth := g.HITS(30)
		refHubs, refAuth := ref.HITS(30)
		sameBits(t, "hubs", hubs, refHubs)
		sameBits(t, "authorities", auth, refAuth)
	}
}

// FuzzCentralityMatchesReference holds PageRank and HITS to the
// adjacency-list reference on a graph read from the input: byte 0 is
// the node count (up to 64), byte 1 the PageRank round cap (up to 63)
// with its top bit choosing an early-exit tolerance, byte 2 the HITS
// rounds (up to 31), then every two bytes one edge, added sorted by
// source.
func FuzzCentralityMatchesReference(f *testing.F) {
	f.Add([]byte{4, 60, 30, 0, 1, 1, 2, 2, 0, 3, 0})
	f.Add([]byte{3, 0x80 | 40, 10, 2, 0, 1, 0, 1, 0, 0, 0, 2, 1})
	f.Add([]byte{1, 5, 5, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(data[0] % 65)
		args := centralityArgs{d: 0.85, prIters: int(data[1] & 63), tol: 0, hitsIters: int(data[2] & 31)}
		if data[1]&0x80 != 0 {
			args.tol = 1e-4
		}
		var edges [][2]int
		for rest := data[3:]; n > 0 && len(rest) >= 2; rest = rest[2:] {
			pair := binary.BigEndian.Uint16(rest)
			edges = append(edges, [2]int{int(pair>>8) % n, int(pair&0xff) % n})
		}
		sameCentrality(t, n, edges, args)
	})
}

// BenchmarkCentrality times ComputeCentrality's work — PageRank to
// convergence and 30 HITS rounds — on a hyperlink graph of one
// fleet-churn community's shape (245 sources, 1–6 Zipf-popular links
// each, about three in four kept), against the reference.
func BenchmarkCentrality(b *testing.B) {
	const n = 245
	r := stats.NewRNG(7)
	popular := stats.NewZipf(n, 0.8)
	var edges [][2]int
	for s := 0; s < n; s++ {
		for l := 1 + r.Intn(6); l > 0; l-- {
			if t := popular.Draw(r); r.Float64() < 0.75 {
				edges = append(edges, [2]int{s, t})
			}
		}
	}
	b.Run("rows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := NewDirected(n)
			for _, e := range edges {
				g.AddEdge(e[0], e[1])
			}
			g.PageRank(0.85, 60, 1e-10)
			g.HITS(30)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := newReferenceDirected(n)
			for _, e := range edges {
				g.AddEdge(e[0], e[1])
			}
			g.PageRank(0.85, 60, 1e-10)
			g.HITS(30)
		}
	})
}
