package optimize

import (
	"math"
	"slices"
)

// Logistic is the L2-regularised weighted logistic regression objective
// minimised by the M-step (Eq. 8): the expected complete-data negative
// log-likelihood of the log-linear CRF under the E-step's soft labels.
//
//	f(w) = λ/2 ‖w‖² + Σ_i c_i · [ −y_i log σ(w·x_i) − (1−y_i) log(1−σ(w·x_i)) ]
//
// where y_i ∈ [0, 1] are soft targets (claim marginals from Gibbs
// sampling) and c_i ≥ 0 are example weights. The problem is strictly
// convex for λ > 0, so TRON converges to the unique optimum.
//
// The examples are one row-major n×dim design matrix; it, the targets,
// the weights and λ are fixed at construction, so what one pass computes
// at a point w holds for every later pass at that w. Value keeps
// z_i = w·x_i and e_i = exp(−|z_i|); Gradient at the same w forms σ_i
// from them, and leaves the curvatures c_i·σ_i·(1−σ_i) for the
// Hessian-vector products at that w. A pass at any other w recomputes
// what it reads, so the Problem contract holds for every w. The passes
// share these caches, so one Logistic must not be evaluated from several
// goroutines at once.
//
// The row loops go four rows at a time (dot4, addRows): four dots, each
// summed in its own local in ascending k, then each output column taking
// the four rows' terms left to right. Every output scalar is therefore
// the same sequence of IEEE operations as the plain row loop — only the
// interleaving across independent scalars changes — so every result has
// the plain loop's bits. Multiply-adds are written a + float64(b·c),
// which forbids fusing them, so arm64 rounds them as amd64 does.
type Logistic struct {
	x      []float64 // n×dim, row-major
	y, c   []float64 // c is all 1 when the caller passed nil
	lambda float64
	dim    int

	// z and e hold w·x_i and exp(−|w·x_i|) at w = zAt; curv holds
	// c_i·σ_i·(1−σ_i) at w = curvAt; coef is one pass's per-row
	// scratch. All four are views of buf, which the first pass borrows
	// from Floats; zAt and curvAt are nil until their cache is filled.
	z, e, curv, coef []float64
	buf              []float64
	zAt, curvAt      []float64
}

// NewLogistic builds the objective over the n = len(y) examples whose
// features are the rows of x, an n×dim row-major matrix, and validates
// the shapes. The objective keeps x, y and c, which the caller must not
// modify afterwards.
func NewLogistic(x []float64, dim int, y, c []float64, lambda float64) *Logistic {
	if dim < 0 || len(x) != len(y)*dim {
		panic("optimize: X is not len(Y)×dim")
	}
	if c == nil {
		c = make([]float64, len(y))
		for i := range c {
			c[i] = 1 // 1·v is v to the bit: the same objective as no weights
		}
	} else if len(c) != len(y) {
		panic("optimize: C length mismatch")
	}
	return &Logistic{x: x, y: y, c: c, lambda: lambda, dim: dim}
}

// Release gives the objective's per-row caches and its examples back to
// Floats; the objective must not be used afterwards. Only an objective
// whose examples were borrowed from Floats is released
// (crf.Model.MStepProblem builds one); one over arrays its caller keeps
// is left to the collector.
func (l *Logistic) Release() {
	for _, s := range [][]float64{l.buf, l.x, l.y, l.c} {
		Floats.Return(s)
	}
	*l = Logistic{}
}

// Dim implements Problem.
func (l *Logistic) Dim() int { return l.dim }

// Len returns the number of examples.
func (l *Logistic) Len() int { return len(l.y) }

// Value implements Problem.
func (l *Logistic) Value(w []float64) float64 {
	l.project(w)
	f := 0.0
	for i, z := range l.z {
		// −y·log σ(z) − (1−y)·log(1−σ(z)) = log(1+e^z) − y·z, stable
		// form: the exp argument is −|z| on both branches.
		var ll float64
		if z > 0 {
			ll = z + math.Log1p(l.e[i]) - float64(l.y[i]*z)
		} else {
			ll = math.Log1p(l.e[i]) - float64(l.y[i]*z)
		}
		f += float64(l.c[i] * ll)
	}
	reg := 0.0
	for _, v := range w {
		reg += float64(v * v)
	}
	return f + float64(0.5*l.lambda*reg)
}

// Gradient implements Problem. TRON asks for it right after Value at the
// same w, so it normally reads that pass's z and e and computes no dot
// and no exp; it leaves the curvatures at w behind for HessianVec, which
// TRON then asks for dozens of times at that same point.
func (l *Logistic) Gradient(w, grad []float64) {
	l.project(w)
	for i, z := range l.z {
		s := sigmoid(z, l.e[i])
		l.curv[i] = l.c[i] * s * (1 - s)
		l.coef[i] = l.c[i] * (s - l.y[i])
	}
	l.curvAt = append(l.curvAt[:0], w...)
	for j := range grad {
		grad[j] = l.lambda * w[j]
	}
	dim, i := l.dim, 0
	for ; i+4 <= len(l.coef); i += 4 {
		r0, r1, r2, r3 := rows4(l.x, i, dim)
		g := l.coef[i : i+4 : i+4]
		addRows(grad, r0, r1, r2, r3, g[0], g[1], g[2], g[3])
	}
	for ; i < len(l.coef); i++ {
		axpy(l.coef[i], l.x[i*dim:][:dim], grad)
	}
}

// HessianVec implements Problem: out = (λI + Σ c_i σ_i(1−σ_i) x_i x_iᵀ)·v.
// Each block of four rows is read once: its four products x_i·v, then
// its four terms added to out.
func (l *Logistic) HessianVec(w, v, out []float64) {
	curv := l.curvature(w)
	for j := range out {
		out[j] = l.lambda * v[j]
	}
	dim, i := l.dim, 0
	for ; i+4 <= len(curv); i += 4 {
		r0, r1, r2, r3 := rows4(l.x, i, dim)
		s0, s1, s2, s3 := dot4(v, r0, r1, r2, r3)
		d := curv[i : i+4 : i+4]
		addRows(out, r0, r1, r2, r3, d[0]*s0, d[1]*s1, d[2]*s2, d[3]*s3)
	}
	for ; i < len(curv); i++ {
		r := l.x[i*dim:][:dim]
		axpy(curv[i]*dot(r, v), r, out)
	}
}

// project makes z and e hold w·x_i and exp(−|w·x_i|) at w. slices.Equal
// takes −0 for +0, which is sound here: a dot that starts from +0 never
// sums to −0, and a ±0 product leaves every other partial sum as it is,
// so the signs of w's zeros cannot reach z.
func (l *Logistic) project(w []float64) {
	if l.zAt != nil && slices.Equal(w, l.zAt) {
		return
	}
	if l.buf == nil {
		n := len(l.y)
		l.buf = Floats.Borrow(4 * n)
		l.z, l.e, l.curv, l.coef = l.buf[:n:n], l.buf[n:2*n:2*n], l.buf[2*n:3*n:3*n], l.buf[3*n:]
	}
	dim, i := l.dim, 0
	for ; i+4 <= len(l.z); i += 4 {
		r0, r1, r2, r3 := rows4(l.x, i, dim)
		z := l.z[i : i+4 : i+4]
		z[0], z[1], z[2], z[3] = dot4(w, r0, r1, r2, r3)
	}
	for ; i < len(l.z); i++ {
		l.z[i] = dot(w, l.x[i*dim:][:dim])
	}
	for i, z := range l.z {
		l.e[i] = math.Exp(-math.Abs(z))
	}
	l.zAt = append(l.zAt[:0], w...)
}

// curvature returns c_i·σ_i·(1−σ_i) at w: the values Gradient left
// behind when it last ran at exactly this w, recomputed — by the same
// expressions, so to the same bits — otherwise.
func (l *Logistic) curvature(w []float64) []float64 {
	if l.curvAt != nil && slices.Equal(w, l.curvAt) {
		return l.curv
	}
	l.project(w)
	for i, z := range l.z {
		s := sigmoid(z, l.e[i])
		l.curv[i] = l.c[i] * s * (1 - s)
	}
	l.curvAt = append(l.curvAt[:0], w...)
	return l.curv
}

// sigmoid is stats.Sigmoid(z) given e = exp(−|z|): its two branches take
// exp(−z) for z ≥ 0 and exp(z) below, both exp(−|z|), and for z = ±0
// both sides read exp(0) = 1.
func sigmoid(z, e float64) float64 {
	if z >= 0 {
		return 1 / (1 + e)
	}
	return e / (1 + e)
}

// rows4 returns rows i … i+3 of the row-major matrix x with dim
// columns.
func rows4(x []float64, i, dim int) (r0, r1, r2, r3 []float64) {
	b := x[i*dim : (i+4)*dim]
	return b[:dim], b[dim:][:dim], b[2*dim:][:dim], b[3*dim:][:dim]
}

// dot4 returns w·r0 … w·r3, each summed from +0 in ascending k as dot
// sums it. The four sums are independent dependency chains, so they
// overlap; each is still dot's sum to the bit.
func dot4(w, r0, r1, r2, r3 []float64) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(w)], r1[:len(w)], r2[:len(w)], r3[:len(w)]
	for k, wk := range w {
		s0 += float64(wk * r0[k])
		s1 += float64(wk * r1[k])
		s2 += float64(wk * r2[k])
		s3 += float64(wk * r3[k])
	}
	return s0, s1, s2, s3
}

// addRows adds c0·r0 + c1·r1 + c2·r2 + c3·r3 to out. Each out[j] takes
// the four terms left to right — the sequence of roundings four
// successive axpy calls give it — while the columns overlap.
func addRows(out, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64) {
	r0, r1, r2, r3 = r0[:len(out)], r1[:len(out)], r2[:len(out)], r3[:len(out)]
	for j := range out {
		out[j] = out[j] + float64(c0*r0[j]) + float64(c1*r1[j]) + float64(c2*r2[j]) + float64(c3*r3[j])
	}
}
