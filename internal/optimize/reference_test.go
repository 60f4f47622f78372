package optimize

import (
	"math"
	"slices"

	"factcheck/internal/stats"
)

// referenceLogistic is the Eq. 8 objective as it was before the design
// matrix went flat and its loops were blocked: one heap row per example,
// one dot and one exp per example per pass, the curvature cache of the
// first form. It is kept verbatim as the definition the served Logistic
// is held to bit for bit, except that its multiply-adds are rounded
// explicitly — amd64 compiled them that way already, and arm64 would
// otherwise fuse them (ROADMAP item 11).
type referenceLogistic struct {
	X      [][]float64
	Y      []float64
	C      []float64
	Lambda float64

	dim          int
	curv, curvAt []float64
}

func newReferenceLogistic(x [][]float64, y, c []float64, lambda float64) *referenceLogistic {
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
	return &referenceLogistic{X: x, Y: y, C: c, Lambda: lambda, dim: dim}
}

func (l *referenceLogistic) Dim() int { return l.dim }

func (l *referenceLogistic) weight(i int) float64 {
	if l.C == nil {
		return 1
	}
	return l.C[i]
}

func (l *referenceLogistic) Value(w []float64) float64 {
	f := 0.0
	for i, row := range l.X {
		z := refDot(w, row)
		var ll float64
		if z > 0 {
			ll = z + math.Log1p(math.Exp(-z)) - float64(l.Y[i]*z)
		} else {
			ll = math.Log1p(math.Exp(z)) - float64(l.Y[i]*z)
		}
		f += float64(l.weight(i) * ll)
	}
	reg := 0.0
	for _, v := range w {
		reg += float64(v * v)
	}
	return f + float64(0.5*l.Lambda*reg)
}

func (l *referenceLogistic) Gradient(w, grad []float64) {
	for j := range grad {
		grad[j] = l.Lambda * w[j]
	}
	l.curvatureAt(w)
	for i, row := range l.X {
		z := refDot(w, row)
		s := stats.Sigmoid(z)
		l.curv[i] = l.weight(i) * s * (1 - s)
		g := l.weight(i) * (s - l.Y[i])
		for j, xj := range row {
			grad[j] += float64(g * xj)
		}
	}
}

func (l *referenceLogistic) curvatureAt(w []float64) {
	if l.curvAt == nil {
		l.curv = make([]float64, len(l.X))
		l.curvAt = make([]float64, len(w))
	}
	copy(l.curvAt, w)
}

func (l *referenceLogistic) curvature(w []float64) []float64 {
	if l.curvAt != nil && slices.Equal(w, l.curvAt) {
		return l.curv
	}
	l.curvatureAt(w)
	for i, row := range l.X {
		s := stats.Sigmoid(refDot(w, row))
		l.curv[i] = l.weight(i) * s * (1 - s)
	}
	return l.curv
}

func (l *referenceLogistic) HessianVec(w, v, out []float64) {
	for j := range out {
		out[j] = l.Lambda * v[j]
	}
	curv := l.curvature(w)
	for i, row := range l.X {
		xv := refDot(row, v)
		coef := curv[i] * xv
		for j, xj := range row {
			out[j] += float64(coef * xj)
		}
	}
}

func refDot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}
