package factdb

import "factcheck/internal/wire"

// State is the probabilistic part P of a fact database Q = ⟨S, D, C, P⟩
// together with the user-input bookkeeping of §3.2: which claims are
// labelled (C_L) and the label values. P(c) is the probability that claim
// c is credible; for labelled claims P(c) is pinned to 0 or 1 by the user
// input.
type State struct {
	p       []float64
	labeled []bool
	label   []bool
	nLabels int
}

// NewState creates the maximum-entropy initial state for n claims:
// P(c) = 0.5 everywhere and no labels (§8.1, "model parameters are
// initialised with 0.5").
func NewState(n int) *State {
	s := &State{
		p:       make([]float64, n),
		labeled: make([]bool, n),
		label:   make([]bool, n),
	}
	for i := range s.p {
		s.p[i] = 0.5
	}
	return s
}

// Len returns the number of claims.
func (s *State) Len() int { return len(s.p) }

// P returns the credibility probability of claim c.
func (s *State) P(c int) float64 { return s.p[c] }

// SetP updates the credibility probability of an unlabelled claim; for a
// labelled claim the call is ignored, since user input pins P (§2.1).
func (s *State) SetP(c int, p float64) {
	if s.labeled[c] {
		return
	}
	s.p[c] = p
}

// Grow appends n unlabelled claims at the maximum-entropy prior
// P = 0.5, mirroring NewState for the rows a corpus delta adds.
func (s *State) Grow(n int) {
	for i := 0; i < n; i++ {
		s.p = append(s.p, 0.5)
		s.labeled = append(s.labeled, false)
		s.label = append(s.label, false)
	}
}

// Labeled reports whether claim c carries user input (c ∈ C_L).
func (s *State) Labeled(c int) bool { return s.labeled[c] }

// Label returns the user-provided credibility of claim c; the second
// result is false when c is unlabelled.
func (s *State) Label(c int) (bool, bool) {
	if !s.labeled[c] {
		return false, false
	}
	return s.label[c], true
}

// SetLabel records user input v for claim c: the claim moves from C_U to
// C_L and P(c) is pinned to 1 (confirmed) or 0 (non-credible).
func (s *State) SetLabel(c int, v bool) {
	if !s.labeled[c] {
		s.nLabels++
	}
	s.labeled[c] = true
	s.label[c] = v
	if v {
		s.p[c] = 1
	} else {
		s.p[c] = 0
	}
}

// NumLabeled returns |C_L|.
func (s *State) NumLabeled() int { return s.nLabels }

// Effort returns the user effort E = |C_L| / |C| (§8.1).
func (s *State) Effort() float64 {
	if len(s.p) == 0 {
		return 0
	}
	return float64(s.nLabels) / float64(len(s.p))
}

// Unlabeled returns the claims of C_U in ascending order.
func (s *State) Unlabeled() []int {
	out := make([]int, 0, len(s.p)-s.nLabels)
	for c := range s.p {
		if !s.labeled[c] {
			out = append(out, c)
		}
	}
	return out
}

// LabeledClaims returns the claims of C_L in ascending order.
func (s *State) LabeledClaims() []int {
	out := make([]int, 0, s.nLabels)
	for c := range s.p {
		if s.labeled[c] {
			out = append(out, c)
		}
	}
	return out
}

// Clone returns an independent deep copy; hypothetical (what-if) inference
// for information gain operates on clones.
func (s *State) Clone() *State {
	c := &State{
		p:       append([]float64(nil), s.p...),
		labeled: append([]bool(nil), s.labeled...),
		label:   append([]bool(nil), s.label...),
		nLabels: s.nLabels,
	}
	return c
}

// AppendImage appends the state's section of a session state image:
// the labelled set, the label values and P as bit patterns.
func (s *State) AppendImage(b []byte) []byte {
	b = wire.AppendBools(b, s.labeled)
	b = wire.AppendBools(b, s.label)
	return wire.AppendF64s(b, s.p)
}

// ReadStateImage decodes a state over n claims — n comes from the
// corpus, never from the image. Every P must be a probability and a
// labelled claim's P must be pinned to its label; the reader carries
// the failure otherwise.
func ReadStateImage(r *wire.Reader, n int) *State {
	s := &State{p: make([]float64, n), labeled: make([]bool, n), label: make([]bool, n)}
	r.Bools(s.labeled)
	r.Bools(s.label)
	r.F64s(s.p)
	for c, p := range s.p {
		ok := p >= 0 && p <= 1 // false for NaN
		if s.labeled[c] {
			s.nLabels++
			ok = p == 0 && !s.label[c] || p == 1 && s.label[c]
		}
		if !ok {
			r.Fail(wire.ErrValue)
		}
	}
	return s
}

// Grounding is a trusted-fact assignment g : C → {0, 1} (§2.1); true means
// the claim is deemed credible.
type Grounding []bool

// NewGrounding returns an all-false grounding over n claims.
func NewGrounding(n int) Grounding { return make(Grounding, n) }

// Clone returns a copy of g.
func (g Grounding) Clone() Grounding { return append(Grounding(nil), g...) }

// Diff returns |{c | g(c) ≠ other(c)}|, the amount-of-changes indicator of
// §6.1. It panics when lengths differ.
func (g Grounding) Diff(other Grounding) int {
	if len(g) != len(other) {
		panic("factdb: grounding length mismatch")
	}
	n := 0
	for i := range g {
		if g[i] != other[i] {
			n++
		}
	}
	return n
}

// Precision returns P_i = |{c | g(c) = truth(c)}| / |C| — the paper's
// precision of a grounding against the correct assignment g* (§8.1).
func (g Grounding) Precision(truth []bool) float64 {
	if len(g) != len(truth) {
		panic("factdb: truth length mismatch")
	}
	if len(g) == 0 {
		return 0
	}
	n := 0
	for i := range g {
		if g[i] == truth[i] {
			n++
		}
	}
	return float64(n) / float64(len(g))
}

// PrecisionImprovement returns R_i = (P_i − P_0) / (1 − P_0), the
// normalised precision of §8.1; it is 0 when P_0 = 1.
func PrecisionImprovement(pi, p0 float64) float64 {
	if p0 >= 1 {
		return 0
	}
	return (pi - p0) / (1 - p0)
}
