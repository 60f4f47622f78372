package optimize

import (
	"math"
	"slices"

	"factcheck/internal/stats"
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
// Gradient and HessianVec share a cache (see curvature), so one Logistic
// must not be evaluated from several goroutines at once.
type Logistic struct {
	// X holds one dense feature row per example.
	X [][]float64
	// Y holds the soft target of each example, in [0, 1].
	Y []float64
	// C holds per-example weights; nil means all 1.
	C []float64
	// Lambda is the L2 regularisation strength λ.
	Lambda float64

	dim int
	// curv[i] = c_i·σ(w·x_i)·(1−σ(w·x_i)) at w = curvAt, the per-example
	// curvature HessianVec needs; curvAt is nil until the first fill.
	curv, curvAt []float64
}

// NewLogistic builds the objective and validates shapes.
func NewLogistic(x [][]float64, y, c []float64, lambda float64) *Logistic {
	if len(x) != len(y) {
		panic("optimize: X/Y length mismatch")
	}
	if c != nil && len(c) != len(y) {
		panic("optimize: C length mismatch")
	}
	dim := 0
	if len(x) > 0 {
		dim = len(x[0])
		for _, row := range x {
			if len(row) != dim {
				panic("optimize: ragged feature rows")
			}
		}
	}
	return &Logistic{X: x, Y: y, C: c, Lambda: lambda, dim: dim}
}

// Dim implements Problem.
func (l *Logistic) Dim() int { return l.dim }

func (l *Logistic) weight(i int) float64 {
	if l.C == nil {
		return 1
	}
	return l.C[i]
}

// Value implements Problem.
func (l *Logistic) Value(w []float64) float64 {
	f := 0.0
	for i, row := range l.X {
		z := dot(w, row)
		// −y·log σ(z) − (1−y)·log(1−σ(z)) = log(1+e^z) − y·z, stable form.
		var ll float64
		if z > 0 {
			ll = z + math.Log1p(math.Exp(-z)) - l.Y[i]*z
		} else {
			ll = math.Log1p(math.Exp(z)) - l.Y[i]*z
		}
		f += l.weight(i) * ll
	}
	reg := 0.0
	for _, v := range w {
		reg += v * v
	}
	return f + 0.5*l.Lambda*reg
}

// Gradient implements Problem. It evaluates σ(w·x_i) for every example
// anyway, so it leaves the curvatures at w behind for HessianVec: TRON
// asks for the gradient once per accepted iterate and then for dozens of
// Hessian-vector products at that same point.
func (l *Logistic) Gradient(w, grad []float64) {
	for j := range grad {
		grad[j] = l.Lambda * w[j]
	}
	l.curvatureAt(w)
	for i, row := range l.X {
		z := dot(w, row)
		s := stats.Sigmoid(z)
		l.curv[i] = l.weight(i) * s * (1 - s)
		g := l.weight(i) * (s - l.Y[i])
		for j, xj := range row {
			grad[j] += g * xj
		}
	}
}

// curvatureAt marks w as the point l.curv is (about to be) valid for.
func (l *Logistic) curvatureAt(w []float64) {
	if l.curvAt == nil {
		l.curv = make([]float64, len(l.X))
		l.curvAt = make([]float64, len(w))
	}
	copy(l.curvAt, w)
}

// curvature returns d_i = c_i·σ_i·(1−σ_i) at w for every example: the
// values Gradient left behind when it was last called at exactly this
// w, recomputed — by the same expression, so to the same bits —
// otherwise. The Problem contract ("HessianVec is evaluated at w")
// therefore holds for any w, not only the current iterate.
func (l *Logistic) curvature(w []float64) []float64 {
	if l.curvAt != nil && slices.Equal(w, l.curvAt) {
		return l.curv
	}
	l.curvatureAt(w)
	for i, row := range l.X {
		s := stats.Sigmoid(dot(w, row))
		l.curv[i] = l.weight(i) * s * (1 - s)
	}
	return l.curv
}

// HessianVec implements Problem: out = (λI + Σ c_i σ_i(1−σ_i) x_i x_iᵀ)·v.
func (l *Logistic) HessianVec(w, v, out []float64) {
	for j := range out {
		out[j] = l.Lambda * v[j]
	}
	curv := l.curvature(w)
	for i, row := range l.X {
		xv := dot(row, v)
		coef := curv[i] * xv
		for j, xj := range row {
			out[j] += coef * xj
		}
	}
}
