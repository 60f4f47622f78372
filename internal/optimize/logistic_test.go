package optimize

import (
	"fmt"
	"math"
	"testing"

	"factcheck/internal/stats"
)

// exactCase is one problem for the exactness checks against
// referenceLogistic: examples, λ, three points and a direction.
type exactCase struct {
	x      [][]float64
	y, c   []float64
	lambda float64
	dim    int
	w      [3][]float64
	v      []float64
}

// Flags of newExactCase that force an edge into the drawn problem.
const (
	caseNilWeights  = 1 << iota // c = nil
	caseHugeRows                // rows scaled so |z| ≥ 746: exp underflows to 0
	caseZeroRows                // all-zero rows: z = +0 at every w
	caseHardTargets             // y ∈ {0, 1}
)

// newExactCase draws an n×dim problem from seed. w[0] and v carry ±0
// entries, w[1] is another point, w[2] is all ±0 (z = +0 on every
// row), and the flags force the edges named above; the RNG adds each
// of them now and then on its own.
func newExactCase(seed int64, n, dim int, flags uint8) exactCase {
	r := stats.NewRNG(seed)
	coin := func(flag uint8, p float64) bool { return flags&flag != 0 && r.Float64() < 0.5 || r.Float64() < p }
	gauss := func(zeroP float64) float64 {
		if r.Float64() < zeroP {
			if r.Bernoulli(0.5) {
				return math.Copysign(0, -1)
			}
			return 0
		}
		return r.NormFloat64()
	}
	k := exactCase{dim: dim, lambda: 0.01 + r.Float64(), x: make([][]float64, n), y: make([]float64, n)}
	if flags&caseNilWeights == 0 && r.Float64() < 0.8 {
		k.c = make([]float64, n)
	}
	for i := range k.x {
		row := make([]float64, dim)
		switch {
		case coin(caseZeroRows, 0.05):
		case coin(caseHugeRows, 0.05):
			for j := range row {
				row[j] = 1000 + 100*r.NormFloat64()
			}
		default:
			for j := range row {
				row[j] = 2 * gauss(0.05)
			}
		}
		k.x[i] = row
		k.y[i] = r.Float64()
		if coin(caseHardTargets, 0.2) {
			k.y[i] = math.Round(k.y[i])
		}
		if k.c != nil {
			k.c[i] = 0.1 + 3*r.Float64()
			if r.Float64() < 0.05 {
				k.c[i] = 0
			}
		}
	}
	for p := range k.w {
		k.w[p] = make([]float64, dim)
	}
	k.v = make([]float64, dim)
	for j := 0; j < dim; j++ {
		k.w[0][j] = gauss(0.2)
		k.w[1][j] = k.w[0][j] + r.NormFloat64()
		k.w[2][j] = gauss(1)
		k.v[j] = gauss(0.2)
	}
	return k
}

// checkMatchesReference holds Logistic to referenceLogistic bit for bit
// on k: each pass at a cached point and away from it, then Minimize —
// cold and warm, at the default and at the served solver settings —
// over both objectives with whatever the passes left in their caches.
func checkMatchesReference(t testing.TB, k exactCase) {
	t.Helper()
	got := newRowsLogistic(k.x, k.y, k.c, k.lambda)
	if k.dim != got.Dim() {
		got = NewLogistic(nil, k.dim, nil, nil, k.lambda) // n = 0: the rows cannot say
	}
	want := newReferenceLogistic(k.x, k.y, k.c, k.lambda)
	want.dim = k.dim
	same := func(what string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s = %v (%#x), reference %v (%#x)", what, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
	sameVec := func(what string, a, b []float64) {
		t.Helper()
		for j := range b {
			same(fmt.Sprintf("%s[%d]", what, j), a[j], b[j])
		}
	}
	w0, w1, w2 := k.w[0], k.w[1], k.w[2]
	value := func(what string, w []float64) { t.Helper(); same(what, got.Value(w), want.Value(w)) }
	gradient := func(what string, w []float64) {
		t.Helper()
		a, b := make([]float64, k.dim), make([]float64, k.dim)
		got.Gradient(w, a)
		want.Gradient(w, b)
		sameVec(what, a, b)
	}
	hessianVec := func(what string, w []float64) {
		t.Helper()
		a, b := make([]float64, k.dim), make([]float64, k.dim)
		got.HessianVec(w, k.v, a)
		want.HessianVec(w, k.v, b)
		sameVec(what, a, b)
	}
	value("Value(w0)", w0)
	gradient("Gradient(w0) after Value(w0)", w0)
	hessianVec("HessianVec(w0) after Gradient(w0)", w0)
	gradient("Gradient(w1) after Value(w0)", w1)
	hessianVec("HessianVec(w2) after Gradient(w1)", w2)
	hessianVec("HessianVec(w1) after HessianVec(w2)", w1)
	value("Value(w2)", w2)
	gradient("Gradient(w2)", w2)
	hessianVec("HessianVec(w2)", w2)
	hessianVec("HessianVec(w0) after Gradient(w2)", w0)
	value("Value(w1)", w1)
	hessianVec("HessianVec(w1) after Value(w1)", w1)
	for _, cfg := range []Config{{}, {MaxIter: 25, CGMaxIter: 20, Tol: 1e-4}} {
		start := w0
		for round := 0; round < 2; round++ {
			a, b := Minimize(got, start, cfg), Minimize(want, start, cfg)
			if a.Iterations != b.Iterations || a.Converged != b.Converged || a.Passes != b.Passes {
				t.Fatalf("Minimize round %d %+v: %d iterations, converged %v, %+v; reference %d, %v, %+v",
					round, cfg, a.Iterations, a.Converged, a.Passes, b.Iterations, b.Converged, b.Passes)
			}
			same("Minimize Value", a.Value, b.Value)
			same("Minimize GradNorm", a.GradNorm, b.GradNorm)
			sameVec("Minimize W", a.W, b.W)
			start = a.W // warm start, as the M-step does
		}
	}
}

// TestLogisticMatchesReference: Value, Gradient, HessianVec and whole
// Minimize results equal the reference's bits on 516 drawn problems —
// every row-block tail (n = 0 … 9) and n ≈ 2 000 at dim 1, 3, 4, 5, 12
// and 13, each with and without weights, with ±0 in w and v, all-zero
// rows (z = 0 exactly) and rows whose |z| underflows exp.
func TestLogisticMatchesReference(t *testing.T) {
	seed := int64(0)
	for _, dim := range []int{1, 3, 4, 5, 12, 13} {
		for n := 0; n <= 9; n++ {
			for flags := uint8(0); flags < 8; flags++ {
				seed++
				checkMatchesReference(t, newExactCase(seed, n, dim, flags|caseZeroRows*uint8(n%2)))
			}
		}
		for _, n := range []int{1999, 2000, 2001, 2002, 40, 77} {
			seed++
			checkMatchesReference(t, newExactCase(seed, n, dim, uint8(seed)&15))
		}
	}
	if seed < 500 {
		t.Fatalf("only %d problems", seed)
	}
}

// FuzzLogisticMatchesReference is TestLogisticMatchesReference over
// fuzzed seeds, shapes and edge flags.
func FuzzLogisticMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(7), uint8(12), uint8(0))
	f.Add(int64(2), uint16(0), uint8(5), uint8(caseNilWeights))
	f.Add(int64(3), uint16(2001), uint8(13), uint8(caseHugeRows|caseZeroRows))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, dim, flags uint8) {
		checkMatchesReference(t, newExactCase(seed, int(n%2100), int(dim%17), flags))
	})
}

// tracedProblem records the value at every point TRON accepts: TRON
// takes the gradient at the start and at each accepted iterate, each
// time right after the Value call at that point.
type tracedProblem struct {
	Problem
	lastW    []float64
	lastF    float64
	accepted []float64
	offPoint bool // a Gradient came at a point other than the last Value's
}

func (p *tracedProblem) Value(w []float64) float64 {
	p.lastW, p.lastF = append(p.lastW[:0], w...), p.Problem.Value(w)
	return p.lastF
}

func (p *tracedProblem) Gradient(w, grad []float64) {
	p.Problem.Gradient(w, grad)
	for j := range w {
		if math.Float64bits(w[j]) != math.Float64bits(p.lastW[j]) {
			p.offPoint = true
			return
		}
	}
	p.accepted = append(p.accepted, p.lastF)
}

// TestTRONNeverAcceptsARise is the M-step half of ROADMAP item 3(d):
// along a Minimize call f never rises from one accepted iterate to the
// next, and the returned Value is f(W) and at most f(w₀) — on 200 drawn
// problems, at the default and at the served solver settings.
func TestTRONNeverAcceptsARise(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := stats.NewRNG(seed)
		k := newExactCase(seed, 1+r.Intn(300), 1+r.Intn(13), uint8(seed)&15)
		for _, cfg := range []Config{{}, {MaxIter: 25, CGMaxIter: 20, Tol: 1e-4}} {
			l := newRowsLogistic(k.x, k.y, k.c, k.lambda)
			p := &tracedProblem{Problem: l}
			f0 := l.Value(k.w[0])
			res := Minimize(p, k.w[0], cfg)
			if p.offPoint || len(p.accepted) == 0 {
				t.Fatalf("seed %d: TRON took a gradient away from its last Value point", seed)
			}
			for i := 1; i < len(p.accepted); i++ {
				if p.accepted[i] > p.accepted[i-1] {
					t.Fatalf("seed %d: accepted f rose %v → %v at step %d", seed, p.accepted[i-1], p.accepted[i], i)
				}
			}
			if res.Value != l.Value(res.W) || res.Value > f0 {
				t.Fatalf("seed %d: Minimize returned f = %v, f(W) = %v, f(w0) = %v", seed, res.Value, l.Value(res.W), f0)
			}
			if res.Passes.Gradient != len(p.accepted) {
				t.Fatalf("seed %d: %d gradient passes counted, %d taken", seed, res.Passes.Gradient, len(p.accepted))
			}
		}
	}
}
