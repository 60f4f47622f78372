// Package optimize implements the L2-regularised Trust Region Newton
// Method (TRON) of Lin, Weng and Keerthi [45], used by the M-step of the
// iCRF algorithm (§3.2, Eq. 8) and by the online EM of the streaming
// engine (§7, Eq. 30). The solver works on any twice-differentiable
// objective exposed through the Problem interface; the weighted logistic
// regression objective used by the CRF lives in logistic.go.
package optimize

import "math"

// Problem is a smooth objective for TRON. Implementations must be
// deterministic; Gradient and HessianVec write into caller-provided
// buffers to avoid per-iteration allocation.
type Problem interface {
	// Dim returns the number of parameters.
	Dim() int
	// Value returns f(w).
	Value(w []float64) float64
	// Gradient writes ∇f(w) into grad.
	Gradient(w, grad []float64)
	// HessianVec writes ∇²f(w)·v into out. w is the point at which the
	// Hessian is evaluated. TRON always passes the iterate it last took
	// the gradient at, so an implementation may keep what Gradient
	// computed there — but it must still be correct for any other w.
	HessianVec(w, v, out []float64)
}

// Config holds TRON hyper-parameters. The zero value is replaced by
// defaults suitable for the small dense problems of the CRF M-step.
type Config struct {
	// MaxIter bounds outer Newton iterations (default 50).
	MaxIter int
	// CGMaxIter bounds conjugate-gradient steps per subproblem
	// (default 30).
	CGMaxIter int
	// Tol is the relative gradient-norm stopping threshold
	// ‖g‖ ≤ Tol·max(1, ‖g₀‖) (default 1e−6).
	Tol float64
	// InitialRadius is the starting trust-region radius (default ‖g₀‖).
	InitialRadius float64
}

func (c Config) withDefaults() Config {
	if c.MaxIter <= 0 {
		c.MaxIter = 50
	}
	if c.CGMaxIter <= 0 {
		c.CGMaxIter = 30
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	return c
}

// Result reports the outcome of a Minimize call.
type Result struct {
	W          []float64
	Value      float64
	GradNorm   float64
	Iterations int
	Converged  bool
	// Passes counts the objective evaluations the call made.
	Passes Passes
}

// Passes counts a Minimize call's evaluations of each Problem method.
// For a Problem over examples (Logistic), each is one pass over all of
// them, so the counts times the example count are the call's row work.
type Passes struct {
	Value, Gradient, HessianVec int
}

// Total returns the number of passes of every kind.
func (p Passes) Total() int { return p.Value + p.Gradient + p.HessianVec }

// Minimize runs TRON from w0 and returns the minimizing parameters. w0 is
// not modified; warm starts (the iCRF "reuse of model parameters") are
// achieved by passing the previous solution as w0.
func Minimize(p Problem, w0 []float64, cfg Config) Result {
	cfg = cfg.withDefaults()
	n := p.Dim()
	w := append([]float64(nil), w0...)
	if len(w) != n {
		panic("optimize: w0 dimension mismatch")
	}

	g := make([]float64, n)
	s := make([]float64, n)
	r := make([]float64, n)
	d := make([]float64, n)
	hd := make([]float64, n)
	wNew := make([]float64, n)

	f := p.Value(w)
	p.Gradient(w, g)
	passes := Passes{Value: 1, Gradient: 1}
	g0norm := norm(g)
	gnorm := g0norm
	delta := cfg.InitialRadius
	if delta <= 0 {
		delta = math.Max(g0norm, 1)
	}

	// Standard TRON acceptance thresholds [45].
	const (
		eta0 = 1e-4
		eta1 = 0.25
		eta2 = 0.75
		sig1 = 0.25
		sig3 = 4.0
	)

	iter := 0
	for ; iter < cfg.MaxIter; iter++ {
		if gnorm <= cfg.Tol*math.Max(1, g0norm) {
			return Result{W: w, Value: f, GradNorm: gnorm, Iterations: iter, Converged: true, Passes: passes}
		}
		// Solve the trust-region subproblem min_s gᵀs + ½ sᵀHs, ‖s‖ ≤ Δ
		// with CG-Steihaug.
		predicted, products := cgSteihaug(p, w, g, delta, cfg.CGMaxIter, s, r, d, hd)
		passes.HessianVec += products

		for i := range wNew {
			wNew[i] = w[i] + s[i]
		}
		fNew := p.Value(wNew)
		passes.Value++
		actual := f - fNew

		rho := 0.0
		if predicted > 0 {
			rho = actual / predicted
		}
		snorm := norm(s)
		// Radius update (Nocedal-Wright form of the [45] schedule).
		switch {
		case rho < eta1:
			delta = math.Max(sig1*math.Min(snorm, delta), 1e-12) // shrink
		case rho < eta2:
			// keep delta
		default:
			delta = math.Max(delta, sig3*snorm)
		}
		if rho > eta0 && actual > 0 {
			copy(w, wNew)
			f = fNew
			p.Gradient(w, g)
			passes.Gradient++
			gnorm = norm(g)
		} else if delta < 1e-12 {
			break // stalled
		}
	}
	converged := gnorm <= cfg.Tol*math.Max(1, g0norm)
	return Result{W: w, Value: f, GradNorm: gnorm, Iterations: iter, Converged: converged, Passes: passes}
}

// cgSteihaug approximately solves min_s gᵀs + ½ sᵀHs subject to ‖s‖ ≤ delta
// and returns the predicted reduction −(gᵀs + ½ sᵀHs) and the number of
// Hessian-vector products it took. The buffers s, r, d and hd must have
// problem dimension; s receives the step.
func cgSteihaug(p Problem, w, g []float64, delta float64, maxIter int, s, r, d, hd []float64) (float64, int) {
	n := len(g)
	for i := 0; i < n; i++ {
		s[i] = 0
		r[i] = -g[i]
		d[i] = r[i]
	}
	rr := dot(r, r)
	if math.Sqrt(rr) < 1e-14 {
		return 0, 0
	}
	tol := 0.1 * math.Sqrt(rr) // forcing sequence
	products := 0
	for it := 0; it < maxIter; it++ {
		p.HessianVec(w, d, hd)
		products++
		dHd := dot(d, hd)
		if dHd <= 1e-16 {
			// Negative curvature (cannot happen for convex problems, but
			// guard anyway): go to the boundary along d.
			tau := boundaryTau(s, d, delta)
			axpy(tau, d, s)
			break
		}
		alpha := rr / dHd
		// Would the step leave the trust region?
		snext := 0.0
		for i := 0; i < n; i++ {
			v := s[i] + float64(alpha*d[i])
			snext += float64(v * v)
		}
		if math.Sqrt(snext) >= delta {
			tau := boundaryTau(s, d, delta)
			axpy(tau, d, s)
			break
		}
		axpy(alpha, d, s)
		for i := 0; i < n; i++ {
			r[i] -= float64(alpha * hd[i])
		}
		rrNew := dot(r, r)
		if math.Sqrt(rrNew) < tol {
			break
		}
		beta := rrNew / rr
		for i := 0; i < n; i++ {
			d[i] = r[i] + float64(beta*d[i])
		}
		rr = rrNew
	}
	// predicted reduction = −(gᵀs + ½ sᵀHs)
	p.HessianVec(w, s, hd)
	return -(dot(g, s) + float64(0.5*dot(s, hd))), products + 1
}

// boundaryTau returns tau >= 0 with ‖s + tau·d‖ = delta.
func boundaryTau(s, d []float64, delta float64) float64 {
	sd := dot(s, d)
	dd := dot(d, d)
	ss := dot(s, s)
	if dd == 0 {
		return 0
	}
	disc := float64(sd*sd) + float64(dd*(float64(delta*delta)-ss))
	if disc < 0 {
		disc = 0
	}
	return (-sd + math.Sqrt(disc)) / dd
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

func norm(v []float64) float64 { return math.Sqrt(dot(v, v)) }

func axpy(a float64, x, y []float64) {
	for i := range y {
		y[i] += float64(a * x[i])
	}
}
