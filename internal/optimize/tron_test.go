package optimize

import (
	"math"
	"testing"
	"testing/quick"

	"factcheck/internal/stats"
)

// quadratic is f(w) = ½ (w−c)ᵀ A (w−c) for a diagonal positive A; the
// minimum is exactly c.
type quadratic struct {
	a, c []float64
}

func (q *quadratic) Dim() int { return len(q.a) }

func (q *quadratic) Value(w []float64) float64 {
	f := 0.0
	for i := range w {
		d := w[i] - q.c[i]
		f += 0.5 * q.a[i] * d * d
	}
	return f
}

func (q *quadratic) Gradient(w, grad []float64) {
	for i := range w {
		grad[i] = q.a[i] * (w[i] - q.c[i])
	}
}

func (q *quadratic) HessianVec(_, v, out []float64) {
	for i := range v {
		out[i] = q.a[i] * v[i]
	}
}

func TestTRONQuadratic(t *testing.T) {
	q := &quadratic{a: []float64{1, 4, 9}, c: []float64{2, -1, 0.5}}
	res := Minimize(q, []float64{0, 0, 0}, Config{})
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	for i := range q.c {
		if math.Abs(res.W[i]-q.c[i]) > 1e-5 {
			t.Fatalf("w[%d] = %v, want %v", i, res.W[i], q.c[i])
		}
	}
}

func TestTRONQuadraticProperty(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := stats.NewRNG(seed)
		n := 1 + r.Intn(8)
		q := &quadratic{a: make([]float64, n), c: make([]float64, n)}
		for i := 0; i < n; i++ {
			q.a[i] = 0.5 + 5*r.Float64()
			q.c[i] = 4 * r.NormFloat64()
		}
		w0 := make([]float64, n)
		for i := range w0 {
			w0[i] = r.NormFloat64()
		}
		res := Minimize(q, w0, Config{MaxIter: 100})
		for i := range q.c {
			if math.Abs(res.W[i]-q.c[i]) > 1e-4 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTRONDoesNotMutateStart(t *testing.T) {
	q := &quadratic{a: []float64{1}, c: []float64{3}}
	w0 := []float64{10}
	Minimize(q, w0, Config{})
	if w0[0] != 10 {
		t.Fatal("Minimize mutated w0")
	}
}

func TestLogisticInterceptOnlyMatchesClosedForm(t *testing.T) {
	// With a single constant feature x=1 and λ=0, the optimum satisfies
	// σ(w) = mean(y), i.e. w = logit(mean y).
	y := []float64{1, 1, 1, 0}
	x := [][]float64{{1}, {1}, {1}, {1}}
	l := newRowsLogistic(x, y, nil, 0)
	res := Minimize(l, []float64{0}, Config{})
	want := math.Log(0.75 / 0.25)
	if math.Abs(res.W[0]-want) > 1e-4 {
		t.Fatalf("w = %v, want %v", res.W[0], want)
	}
}

func TestLogisticWeightedExamples(t *testing.T) {
	// Same as above, but weight the positive example 3x: effective mean
	// is (3·1 + 1·0)/4 = 0.75.
	y := []float64{1, 0}
	x := [][]float64{{1}, {1}}
	c := []float64{3, 1}
	l := newRowsLogistic(x, y, c, 0)
	res := Minimize(l, []float64{0}, Config{})
	want := math.Log(0.75 / 0.25)
	if math.Abs(res.W[0]-want) > 1e-4 {
		t.Fatalf("w = %v, want %v", res.W[0], want)
	}
}

func TestLogisticSoftTargets(t *testing.T) {
	// Soft target 0.9 on a single intercept example: σ(w) = 0.9.
	l := newRowsLogistic([][]float64{{1}}, []float64{0.9}, nil, 0)
	res := Minimize(l, []float64{0}, Config{})
	want := math.Log(0.9 / 0.1)
	if math.Abs(res.W[0]-want) > 1e-3 {
		t.Fatalf("w = %v, want %v", res.W[0], want)
	}
}

func TestLogisticRegularisationShrinks(t *testing.T) {
	y := []float64{1, 1, 0, 0}
	x := [][]float64{{2}, {1.5}, {-1.5}, {-2}}
	free := Minimize(newRowsLogistic(x, y, nil, 1e-6), []float64{0}, Config{})
	reg := Minimize(newRowsLogistic(x, y, nil, 5), []float64{0}, Config{})
	if math.Abs(reg.W[0]) >= math.Abs(free.W[0]) {
		t.Fatalf("regularised |w|=%v not below unregularised |w|=%v",
			math.Abs(reg.W[0]), math.Abs(free.W[0]))
	}
	if free.W[0] <= 0 {
		t.Fatalf("separable data should give positive weight, got %v", free.W[0])
	}
}

func TestLogisticGradientMatchesFiniteDifference(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := stats.NewRNG(seed)
		n, d := 2+r.Intn(10), 1+r.Intn(4)
		x := make([][]float64, n)
		y := make([]float64, n)
		c := make([]float64, n)
		for i := range x {
			x[i] = make([]float64, d)
			for j := range x[i] {
				x[i][j] = r.NormFloat64()
			}
			y[i] = r.Float64()
			c[i] = 0.5 + r.Float64()
		}
		l := newRowsLogistic(x, y, c, 0.3)
		w := make([]float64, d)
		for j := range w {
			w[j] = r.NormFloat64()
		}
		grad := make([]float64, d)
		l.Gradient(w, grad)
		const h = 1e-6
		for j := 0; j < d; j++ {
			wp := append([]float64(nil), w...)
			wm := append([]float64(nil), w...)
			wp[j] += h
			wm[j] -= h
			fd := (l.Value(wp) - l.Value(wm)) / (2 * h)
			if math.Abs(fd-grad[j]) > 1e-4*(1+math.Abs(fd)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLogisticHessianVecMatchesFiniteDifference(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := stats.NewRNG(seed)
		n, d := 2+r.Intn(8), 1+r.Intn(4)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = make([]float64, d)
			for j := range x[i] {
				x[i][j] = r.NormFloat64()
			}
			y[i] = r.Float64()
		}
		l := newRowsLogistic(x, y, nil, 0.1)
		w := make([]float64, d)
		v := make([]float64, d)
		for j := range w {
			w[j] = r.NormFloat64()
			v[j] = r.NormFloat64()
		}
		hv := make([]float64, d)
		l.HessianVec(w, v, hv)
		// Finite difference of the gradient along v.
		const h = 1e-5
		wp := make([]float64, d)
		wm := make([]float64, d)
		for j := range w {
			wp[j] = w[j] + h*v[j]
			wm[j] = w[j] - h*v[j]
		}
		gp := make([]float64, d)
		gm := make([]float64, d)
		l.Gradient(wp, gp)
		l.Gradient(wm, gm)
		for j := 0; j < d; j++ {
			fd := (gp[j] - gm[j]) / (2 * h)
			if math.Abs(fd-hv[j]) > 1e-3*(1+math.Abs(fd)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLogisticSeparableRecovers(t *testing.T) {
	// 2D separable data; the learned boundary must classify training
	// points correctly.
	r := stats.NewRNG(77)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		cls := r.Bernoulli(0.5)
		cx := -1.5
		if cls {
			cx = 1.5
		}
		x = append(x, []float64{1, cx + 0.3*r.NormFloat64(), r.NormFloat64()})
		if cls {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	l := newRowsLogistic(x, y, nil, 0.01)
	res := Minimize(l, make([]float64, 3), Config{})
	if !res.Converged {
		t.Fatalf("no convergence: %+v", res)
	}
	correct := 0
	for i := range x {
		z := 0.0
		for j := range res.W {
			z += res.W[j] * x[i][j]
		}
		if (z > 0) == (y[i] == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.95 {
		t.Fatalf("training accuracy = %v", acc)
	}
}

func TestLogisticPanicsOnBadShapes(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("xy mismatch", func() { NewLogistic([]float64{1}, 1, []float64{1, 2}, nil, 0) })
	mustPanic("c mismatch", func() { NewLogistic([]float64{1}, 1, []float64{1}, []float64{1, 2}, 0) })
	mustPanic("ragged", func() { NewLogistic([]float64{1, 1, 2}, 2, []float64{1, 0}, nil, 0) })
	mustPanic("negative dim", func() { NewLogistic(nil, -1, nil, nil, 0) })
}

func TestTRONWarmStartFaster(t *testing.T) {
	// Solving from the previous optimum should take (near) zero
	// iterations — the incremental-inference property iCRF relies on.
	r := stats.NewRNG(5)
	n, d := 100, 4
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = r.NormFloat64()
		}
		if r.Bernoulli(0.5) {
			y[i] = 1
		}
	}
	l := newRowsLogistic(x, y, nil, 0.1)
	cold := Minimize(l, make([]float64, d), Config{})
	warm := Minimize(l, cold.W, Config{})
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm start (%d iters) slower than cold (%d)", warm.Iterations, cold.Iterations)
	}
	if warm.Iterations > 1 {
		t.Fatalf("warm start from optimum took %d iterations", warm.Iterations)
	}
}

// uncachedLogistic is the reference the curvature cache is held to: the
// reference objective with HessianVec recomputing σ(w·x_i) for every
// example on every call, as Logistic did before it cached them per
// iterate.
type uncachedLogistic struct{ *referenceLogistic }

func (u uncachedLogistic) HessianVec(w, v, out []float64) {
	l := u.referenceLogistic
	for j := range out {
		out[j] = l.Lambda * v[j]
	}
	for i, row := range l.X {
		s := stats.Sigmoid(refDot(w, row))
		coef := l.weight(i) * s * (1 - s) * refDot(row, v)
		for j, xj := range row {
			out[j] += float64(coef * xj)
		}
	}
}

// newRowsLogistic builds a Logistic from one slice per example row.
func newRowsLogistic(x [][]float64, y, c []float64, lambda float64) *Logistic {
	dim := 0
	if len(x) > 0 {
		dim = len(x[0])
	}
	flat := make([]float64, 0, len(x)*dim)
	for _, row := range x {
		flat = append(flat, row...)
	}
	return NewLogistic(flat, dim, y, c, lambda)
}

// randomProblem draws a weighted soft-target problem the size of a small
// M-step and a starting point for it.
func randomProblem(r *stats.RNG) (x [][]float64, y, c, w0 []float64, lambda float64) {
	n, d := 5+r.Intn(60), 1+r.Intn(8)
	x = make([][]float64, n)
	y = make([]float64, n)
	c = make([]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = 2 * r.NormFloat64()
		}
		y[i] = r.Float64()
		c[i] = 0.1 + 3*r.Float64()
	}
	w0 = make([]float64, d)
	for j := range w0 {
		w0[j] = r.NormFloat64()
	}
	return x, y, c, w0, 0.01 + r.Float64()
}

// TestCurvatureCacheIsExact: TRON over the cached objective returns the
// same bits as over the recomputing reference — parameters, value and
// iteration count — on 200 random problems, a second solve on the same
// (already cached) objective included.
func TestCurvatureCacheIsExact(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		x, y, c, w0, lambda := randomProblem(stats.NewRNG(seed))
		l := newRowsLogistic(x, y, c, lambda)
		ref := uncachedLogistic{newReferenceLogistic(x, y, c, lambda)}
		for round := 0; round < 2; round++ {
			got := Minimize(l, w0, Config{})
			want := Minimize(ref, w0, Config{})
			if got.Iterations != want.Iterations || math.Float64bits(got.Value) != math.Float64bits(want.Value) {
				t.Fatalf("seed %d round %d: %d iterations to %v, reference %d to %v",
					seed, round, got.Iterations, got.Value, want.Iterations, want.Value)
			}
			for j := range want.W {
				if math.Float64bits(got.W[j]) != math.Float64bits(want.W[j]) {
					t.Fatalf("seed %d round %d: W[%d] = %v, reference %v", seed, round, j, got.W[j], want.W[j])
				}
			}
			w0 = got.W // warm start, as the M-step does
		}
	}
}

// TestHessianVecRecomputesAwayFromTheGradientPoint pins the Problem
// contract: HessianVec is evaluated at the w it is given. A call at a
// point other than the one Gradient last saw must not read that
// point's curvatures, and going back must not read the detour's.
func TestHessianVecRecomputesAwayFromTheGradientPoint(t *testing.T) {
	r := stats.NewRNG(11)
	x, y, c, w1, lambda := randomProblem(r)
	l := newRowsLogistic(x, y, c, lambda)
	ref := uncachedLogistic{newReferenceLogistic(x, y, c, lambda)}
	d := l.Dim()
	w2, v := make([]float64, d), make([]float64, d)
	for j := range w2 {
		w2[j] = w1[j] + 0.5 + r.Float64()
		v[j] = r.NormFloat64()
	}
	same := func(when string, w []float64) {
		t.Helper()
		got, want := make([]float64, d), make([]float64, d)
		l.HessianVec(w, v, got)
		ref.HessianVec(w, v, want)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: HessianVec[%d] = %v, want %v", when, j, got[j], want[j])
			}
		}
	}
	same("before any gradient", w2)
	l.Gradient(w1, make([]float64, d))
	same("at the gradient point", w1)
	same("away from it", w2)
	same("back at it", w1)
	// A caller that moves its iterate in place is seen too.
	w1[0] += 0.25
	same("iterate mutated in place", w1)
	// So is one that evaluates elsewhere and comes back to the
	// gradient point without a gradient.
	l.Value(w2)
	same("after a value elsewhere", w1)
}
