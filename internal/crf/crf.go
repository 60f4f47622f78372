// Package crf implements the Conditional Random Field of §3.1: the
// log-linear clique potentials of Eq. 2 over (claim, document, source)
// relation factors, with tied parameters and the stance encoding of the
// opposing variables ¬c (Eq. 3).
//
// Parameterisation. The paper assigns each clique π a weight set
// W_π = {w_π,0, w_π,1, w^D_π,t, w^S_π,t}; as is standard for CRFs the
// weights are tied across cliques (learning per-clique weights from at
// most one label per claim is statistically void — see DESIGN.md). In a
// binary model only the difference of the two per-configuration weight
// vectors is identifiable, so the model stores a single parameter vector
// θ and defines the clique's contribution to the log-odds of its claim as
//
//	score(π) = Stance(π).Sign() · θ·x(π)
//	x(π) = [1, f^D(d), f^S(s), trust(s)]
//
// where trust(s) ∈ [−1, 1] is the mutual-reinforcement feature: the
// stance-weighted agreement of the source's other claims under the
// current configuration (§3.2, "we weight the influence of causal
// interactions by the credibility of their contained claims"). A refuting
// document attaches to the opposing variable ¬c, which the Sign() factor
// realises; Pr(c = ¬c) = 0 holds by construction.
package crf

import (
	"fmt"

	"factcheck/internal/factdb"
	"factcheck/internal/optimize"
)

// OddsGain scales a claim's averaged clique score into its credibility
// log-odds: LogOdds(c) = OddsGain · mean_π(Stance·θ·x(π)). Averaging
// (instead of summing) keeps a claim's evidence bounded regardless of its
// document count — otherwise the bias term times the stance balance grows
// with popularity and saturates every well-covered claim — while the gain
// restores enough dynamic range for unanimous evidence to be decisive.
const OddsGain = 4.0

// Model is the tied-parameter CRF over a fact database.
type Model struct {
	DB    *factdb.DB
	Theta []float64 // layout: [bias, doc features..., source features..., trust]
}

// New creates a model with zero weights, which realises the maximum
// entropy initialisation of §8.1: every clique potential is uniform and
// all credibility probabilities start at 0.5.
func New(db *factdb.DB) *Model {
	return &Model{DB: db, Theta: make([]float64, 2+db.DocFeatureDim()+db.SourceFeatureDim())}
}

// Dim returns the parameter dimensionality: 1 (bias) + mD + mS + 1 (trust).
func (m *Model) Dim() int { return 2 + m.DB.DocFeatureDim() + m.DB.SourceFeatureDim() }

// TrustWeight returns θ_trust, the coupling strength of the
// mutual-reinforcement feature.
func (m *Model) TrustWeight() float64 { return m.Theta[len(m.Theta)-1] }

// SetTheta replaces the parameters; the slice is copied.
func (m *Model) SetTheta(theta []float64) {
	if len(theta) != len(m.Theta) {
		panic(fmt.Sprintf("crf: theta dimension %d, want %d", len(theta), len(m.Theta)))
	}
	copy(m.Theta, theta)
}

// CliqueFeatures writes the feature vector x(π) of clique ci, read from
// the database's rows, into buf (which must have length Dim()) using the
// supplied trust value for the clique's source.
func (m *Model) CliqueFeatures(rows factdb.Rows, ci int, trust float64, buf []float64) {
	c := rows.Cliques[ci]
	buf[0] = 1
	k := 1
	for _, f := range rows.DocFeatures(int(c.Doc)) {
		buf[k] = f
		k++
	}
	for _, f := range rows.SourceFeatures(int(c.Source)) {
		buf[k] = f
		k++
	}
	buf[k] = trust
}

// BaseScore returns θ·x(π) of clique ci, read from the database's rows,
// with the trust feature zeroed — the static part of the clique score,
// cached by the Gibbs sampler and refreshed whenever θ changes.
func (m *Model) BaseScore(rows factdb.Rows, ci int) float64 {
	c := rows.Cliques[ci]
	s := m.Theta[0]
	k := 1
	for _, f := range rows.DocFeatures(int(c.Doc)) {
		s += float64(m.Theta[k] * f)
		k++
	}
	for _, f := range rows.SourceFeatures(int(c.Source)) {
		s += float64(m.Theta[k] * f)
		k++
	}
	return s
}

// BaseScores computes BaseScore for every clique into a slice borrowed
// from optimize.Floats, which the caller may give back when done with
// it.
func (m *Model) BaseScores() []float64 {
	rows := m.DB.Rows()
	out := optimize.Floats.Borrow(len(rows.Cliques))
	for ci := range out {
		out[ci] = m.BaseScore(rows, ci)
	}
	return out
}

// PerCliqueTrust returns, for every clique π = (c, d, s), the smoothed
// expected stance agreement of source s computed over s's cliques
// *excluding those of claim c*. The self-exclusion mirrors the Gibbs
// conditional (gibbs.Chain.LogOdds) and is essential in the M-step: a
// claim's own expected agreement is a function of its target, so an
// inclusive trust feature leaks the label into the design matrix and the
// optimizer rides it instead of learning the real features. The slice
// is borrowed from optimize.Floats, like every array the function
// works in; the caller may give it back when done with it.
func PerCliqueTrust(db *factdb.DB, p []float64) []float64 {
	const (
		priorAgree    = 2.0
		priorDisagree = 1.0
	)
	ns, rows := len(db.Sources), db.Rows()
	buf := optimize.Floats.Borrow(4 * ns)
	defer optimize.Floats.Return(buf)
	agree, total := buf[:ns:ns], buf[ns:2*ns:2*ns]
	expAgree := func(cl factdb.Clique) float64 {
		a := p[cl.Claim]
		if cl.Stance == factdb.Refute {
			a = 1 - a
		}
		return a
	}
	for _, cl := range rows.Cliques {
		agree[cl.Source] += expAgree(cl)
		total[cl.Source]++
	}
	out := optimize.Floats.Borrow(len(rows.Cliques))
	// Per claim, subtract the claim's own contribution per source. The
	// own* scratch is dense over sources and zeroed again over the
	// claim's cliques, so a claim costs O(its cliques).
	ownAgree, ownCount := buf[2*ns:3*ns:3*ns], buf[3*ns:]
	for c := 0; c < db.NumClaims; c++ {
		cliques := db.ClaimCliques(c)
		for _, ci := range cliques {
			cl := rows.Cliques[ci]
			ownAgree[cl.Source] += expAgree(cl)
			ownCount[cl.Source]++
		}
		for _, ci := range cliques {
			cl := rows.Cliques[ci]
			a := agree[cl.Source] - ownAgree[cl.Source]
			t := total[cl.Source] - ownCount[cl.Source]
			out[ci] = 2*(a+priorAgree)/(t+priorAgree+priorDisagree) - 1
		}
		for _, ci := range cliques {
			src := rows.Cliques[ci].Source
			ownAgree[src], ownCount[src] = 0, 0
		}
	}
	return out
}

// MStepProblem assembles the weighted logistic objective of Eq. 8 with
// L2 strength lambda: one example per clique of a labelled claim (a
// purely supervised M-step, DESIGN.md §4), weighted labelWeight, with
// features x(π) (using self-excluded expected source trust from p, see
// PerCliqueTrust) and soft target q = p(c) for supporting cliques and
// 1−p(c) for refuting ones. The examples are borrowed from
// optimize.Floats; the caller gives them back with the objective's
// Release when the step is done.
func (m *Model) MStepProblem(state *factdb.State, p []float64, labelWeight, lambda float64) *optimize.Logistic {
	x, y, c := m.mStepExamples(state, p, labelWeight)
	return optimize.NewLogistic(x, m.Dim(), y, c, lambda)
}

// mStepExamples returns MStepProblem's examples: the design matrix
// (row-major, Dim() columns, x(π) written straight into it), the
// targets and the weights.
func (m *Model) mStepExamples(state *factdb.State, p []float64, labelWeight float64) (x, y, c []float64) {
	rows := m.DB.Rows()
	n := 0
	for _, cl := range rows.Cliques {
		if state.Labeled(int(cl.Claim)) {
			n++
		}
	}
	trust := PerCliqueTrust(m.DB, p)
	defer optimize.Floats.Return(trust)
	dim := m.Dim()
	x = optimize.Floats.Borrow(n * dim)
	y = optimize.Floats.Borrow(n)[:0]
	c = optimize.Floats.Borrow(n)[:0]
	for ci, cl := range rows.Cliques {
		if !state.Labeled(int(cl.Claim)) {
			continue
		}
		m.CliqueFeatures(rows, ci, trust[ci], x[len(y)*dim:][:dim])
		target := p[cl.Claim]
		if cl.Stance == factdb.Refute {
			target = 1 - target
		}
		y = append(y, target)
		c = append(c, labelWeight)
	}
	return x, y, c
}
