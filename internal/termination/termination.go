// Package termination implements the early-termination machinery of
// §6.1: the uncertainty reduction rate (URR), the amount of changes
// (CNG), the amount of validated predictions (PRE), and the precision
// improvement rate (PIR) estimated by k-fold cross validation — the
// decision-support heuristics that stop the validation process once the
// probabilistic model has converged.
package termination

import (
	"factcheck/internal/core"
	"factcheck/internal/em"
	"factcheck/internal/entropy"
	"factcheck/internal/factdb"
	"factcheck/internal/stats"
)

// Observation carries the per-iteration signals of Alg. 1 consumed by the
// tracker.
type Observation struct {
	// Entropy is H_C(Q_i) after the iteration (Eq. 13 approximation).
	Entropy float64
	// Changes is |{c | g_i(c) ≠ g_{i−1}(c)}|.
	Changes int
	// Claims is |C|.
	Claims int
	// PredictionMatched reports whether the pre-validation grounding
	// g_{i−1}(c) agreed with the user's verdict for the validated claim.
	PredictionMatched bool
}

// Tracker accumulates observations and exposes the §6.1 indicators.
// Window controls how many recent iterations the PRE indicator and the
// consecutive-iteration stopping rules consider.
type Tracker struct {
	Window int

	obs []Observation
	cv  []float64 // cross-validation precision estimates A_i
}

// NewTracker creates a tracker with the given smoothing window
// (default 5 when w <= 0).
func NewTracker(w int) *Tracker {
	if w <= 0 {
		w = 5
	}
	return &Tracker{Window: w}
}

// Observe appends one iteration's signals.
func (t *Tracker) Observe(o Observation) { t.obs = append(t.obs, o) }

// ObserveSession appends the signals of the iteration s just finished
// (a core.Session observer calls it): the Eq. 13 entropy of its state,
// the grounding changes the iteration made, |C|, and whether the
// pre-validation grounding predicted the last verdict.
func (t *Tracker) ObserveSession(s *core.Session) {
	hist := s.History()
	matched := false
	if len(hist) > 0 {
		last := hist[len(hist)-1]
		matched = s.PrevGrounding()[last.Claim] == last.Verdict
	}
	t.Observe(Observation{
		Entropy:           entropy.Approx(s.State),
		Changes:           s.Grounding().Diff(s.PrevGrounding()),
		Claims:            s.DB.NumClaims,
		PredictionMatched: matched,
	})
}

// ObserveCV appends a cross-validation precision estimate A_i (feeding
// the PIR indicator).
func (t *Tracker) ObserveCV(a float64) { t.cv = append(t.cv, a) }

// URR returns the uncertainty reduction rate of the latest iteration,
// (H(Q_{i−1}) − H(Q_i)) / H(Q_{i−1}); 0 before two observations.
func (t *Tracker) URR() float64 {
	n := len(t.obs)
	if n < 2 {
		return 0
	}
	prev, cur := t.obs[n-2].Entropy, t.obs[n-1].Entropy
	if prev <= 0 {
		return 0
	}
	return (prev - cur) / prev
}

// CNG returns the latest amount-of-changes indicator as a fraction of
// |C|.
func (t *Tracker) CNG() float64 {
	n := len(t.obs)
	if n == 0 {
		return 0
	}
	o := t.obs[n-1]
	if o.Claims == 0 {
		return 0
	}
	return float64(o.Changes) / float64(o.Claims)
}

// PRE returns the fraction of the last Window iterations whose inference
// result matched the user input.
func (t *Tracker) PRE() float64 {
	n := len(t.obs)
	if n == 0 {
		return 0
	}
	lo := n - t.Window
	if lo < 0 {
		lo = 0
	}
	matched := 0
	for _, o := range t.obs[lo:n] {
		if o.PredictionMatched {
			matched++
		}
	}
	return float64(matched) / float64(n-lo)
}

// PIR returns the precision improvement rate (A_i − A_{i−1}) / A_{i−1}
// from the last two cross-validation estimates; 0 before two estimates.
func (t *Tracker) PIR() float64 {
	n := len(t.cv)
	if n < 2 {
		return 0
	}
	if t.cv[n-2] <= 0 {
		return 0
	}
	return (t.cv[n-1] - t.cv[n-2]) / t.cv[n-2]
}

// Thresholds configures ShouldStop; zero-valued criteria are ignored.
type Thresholds struct {
	// URRBelow stops once the uncertainty reduction rate stays below
	// this value for Consecutive iterations.
	URRBelow float64
	// CNGBelow stops once the change fraction stays below this value
	// for Consecutive iterations.
	CNGBelow float64
	// PREAbove stops once the validated-prediction rate stays above
	// this value for Consecutive iterations.
	PREAbove float64
	// PIRBelow stops once the precision improvement rate (absolute
	// value) falls below this value.
	PIRBelow float64
	// Consecutive is the required run length (default 3).
	Consecutive int
}

// ShouldStop evaluates the configured criteria; any satisfied criterion
// stops the process (the indicators are alternatives, §6.1).
func (t *Tracker) ShouldStop(th Thresholds) bool {
	consec := th.Consecutive
	if consec <= 0 {
		consec = 3
	}
	if len(t.obs) < consec {
		return false
	}
	if th.URRBelow > 0 && t.runLength(func(i int) bool {
		if i == 0 {
			return false
		}
		prev := t.obs[i-1].Entropy
		if prev <= 0 {
			return true
		}
		return (prev-t.obs[i].Entropy)/prev < th.URRBelow
	}) >= consec {
		return true
	}
	if th.CNGBelow > 0 && t.runLength(func(i int) bool {
		o := t.obs[i]
		return o.Claims > 0 && float64(o.Changes)/float64(o.Claims) < th.CNGBelow
	}) >= consec {
		return true
	}
	if th.PREAbove > 0 && t.runLength(func(i int) bool {
		return t.obs[i].PredictionMatched
	}) >= consec && t.PRE() >= th.PREAbove {
		return true
	}
	if th.PIRBelow > 0 && len(t.cv) >= 2 {
		pir := t.PIR()
		if pir < 0 {
			pir = -pir
		}
		if pir < th.PIRBelow {
			return true
		}
	}
	return false
}

// runLength returns the length of the trailing run of observations
// satisfying pred (by index into obs).
func (t *Tracker) runLength(pred func(i int) bool) int {
	n := 0
	for i := len(t.obs) - 1; i >= 0; i-- {
		if !pred(i) {
			break
		}
		n++
	}
	return n
}

// CrossValidate estimates the model precision A_i by k-fold cross
// validation over the labelled claims (§6.1): each fold's labels are
// withheld, credibility is re-inferred for the withheld claims, and the
// inferred values are compared with the user input. The mean fold
// accuracy is returned; claims < k labels return 0.
func CrossValidate(e *em.Engine, state *factdb.State, k int, rng *stats.RNG) float64 {
	labeled := state.LabeledClaims()
	if k <= 1 || len(labeled) < k {
		return 0
	}
	rng.Shuffle(len(labeled), func(i, j int) { labeled[i], labeled[j] = labeled[j], labeled[i] })
	foldSize := (len(labeled) + k - 1) / k
	total := 0.0
	folds := 0
	for f := 0; f < k; f++ {
		lo := f * foldSize
		if lo >= len(labeled) {
			break
		}
		hi := lo + foldSize
		if hi > len(labeled) {
			hi = len(labeled)
		}
		fold := labeled[lo:hi]
		marg := e.HoldoutMarginals(state, fold)
		correct := 0
		for i, c := range fold {
			v, _ := state.Label(c)
			if (marg[i] >= 0.5) == v {
				correct++
			}
		}
		total += float64(correct) / float64(len(fold))
		folds++
	}
	if folds == 0 {
		return 0
	}
	return total / float64(folds)
}
