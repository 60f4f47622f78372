// Package stream implements the streaming fact checking of §7 (Alg. 2):
// an online Expectation-Maximization engine that updates the CRF
// parameters with stochastic approximation (Eq. 29-30) as new claims,
// documents and sources arrive, instead of re-computing from the full
// (and ever-growing) database. The engine exchanges parameters with the
// validation process of Alg. 1 in both directions (lines 7 and 10).
package stream

import (
	"math"
	"sync"

	"factcheck/internal/crf"
	"factcheck/internal/optimize"
	"factcheck/internal/stats"
)

// The online EM's settings (DESIGN.md §6).
const (
	// gamma0 scales the step sizes γ_t = gamma0 / t^gammaExp.
	gamma0 = 1.0
	// gammaExp ∈ (0.5, 1] satisfies the Robbins-Monro conditions
	// Σγ_t = ∞ and Σγ_t² < ∞ ([18]).
	gammaExp = 0.6
	// bufferCap bounds the retained clique observations; the oldest
	// (most down-weighted) observations are evicted first. Claims and
	// their user input are discarded after validation (§7).
	bufferCap = 4096
	// lambda is the L2 regularisation of the M-step.
	lambda = 0.01
)

// tron configures the Eq. 30 solver.
var tron = optimize.Config{MaxIter: 15, CGMaxIter: 15, Tol: 1e-3}

// Engine is the online EM state: the current parameters W_t and the
// decaying-weight sufficient-statistics buffer realising Q_t(W).
//
// An Engine is safe for concurrent use: arrivals and validated claims
// flowing back from Alg. 1 (§7, lines 7/10) may be observed from
// different goroutines, and Predict/Theta may be read while updates run.
// Updates are serialised internally — the stochastic-approximation
// recursion Q_t = (1−γ_t)Q_{t−1} + γ_t(·) is inherently sequential — so
// concurrency changes arrival interleaving (as a real stream would), not
// the correctness of any single update.
type Engine struct {
	mu     sync.Mutex
	bufCap int // bufferCap, or the smaller one a test sets
	dim    int
	t      int
	theta  []float64

	rows []float64 // len(ys)×dim, row-major: NewLogistic's design matrix
	ys   []float64
	ws   []float64
}

// New creates an engine for parameter dimensionality dim (the crf.Model
// dimension) with zero initial parameters.
func New(dim int) *Engine {
	return &Engine{bufCap: bufferCap, dim: dim, theta: make([]float64, dim)}
}

// StepSize returns γ_t for a given t (exposed for the Robbins-Monro
// property tests).
func (e *Engine) StepSize(t int) float64 {
	if t < 1 {
		t = 1
	}
	return gamma0 / math.Pow(float64(t), gammaExp)
}

// Theta returns a copy of the current parameters W_t.
func (e *Engine) Theta() []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]float64(nil), e.theta...)
}

// SetTheta installs parameters received from the validation process
// (Alg. 2 line 7); the next update warm-starts from them.
func (e *Engine) SetTheta(theta []float64) {
	if len(theta) != e.dim {
		panic("stream: theta dimension mismatch")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	copy(e.theta, theta)
}

func (e *Engine) predictLocked(rows [][]float64, signs []float64) float64 {
	z := 0.0
	for i, row := range rows {
		s := 0.0
		for j, x := range row {
			s += e.theta[j] * x
		}
		z += signs[i] * s
	}
	return stats.Sigmoid(z)
}

// ObserveClaim performs one stochastic-approximation update (Eq. 29-30)
// for an arriving claim described by its clique feature rows and stance
// signs. When the claim arrives with a known verdict (a validated claim
// flowing back from Alg. 1), pass it via label; otherwise pass nil and
// the engine uses its own prediction as the expectation over C_U.
func (e *Engine) ObserveClaim(rows [][]float64, signs []float64, label *bool) {
	if len(rows) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.t++
	gamma := e.StepSize(e.t)

	// Expectation for the new claim.
	var p float64
	if label != nil {
		if *label {
			p = 1
		} else {
			p = 0
		}
	} else {
		p = e.predictLocked(rows, signs)
	}

	// Q_t = (1−γ)·Q_{t−1} + γ·(new term): decay the old observations...
	for i := range e.ws {
		e.ws[i] *= 1 - gamma
	}
	// ...and append the new claim's cliques at weight γ.
	for i, row := range rows {
		y := p
		if signs[i] < 0 {
			y = 1 - p
		}
		e.rows = append(e.rows, row...)
		e.ys = append(e.ys, y)
		e.ws = append(e.ws, gamma)
	}
	// FIFO eviction: the oldest entries carry the smallest weights.
	if over := len(e.ys) - e.bufCap; over > 0 {
		e.rows = e.rows[over*e.dim:]
		e.ys = e.ys[over:]
		e.ws = e.ws[over:]
	}

	// M-step (Eq. 30): TRON warm-started from W_{t−1}.
	prob := optimize.NewLogistic(e.rows, e.dim, e.ys, e.ws, lambda)
	res := optimize.Minimize(prob, e.theta, tron)
	copy(e.theta, res.W)
}

// RowsForClaim builds the clique feature rows and stance signs of claim c
// under model m, using the supplied per-source trust estimates (pass nil
// for neutral trust). It is the bridge between a fact database and the
// database-free streaming engine.
func RowsForClaim(m *crf.Model, c int, trust []float64) (rows [][]float64, signs []float64) {
	dbRows := m.DB.Rows()
	for _, ci := range dbRows.ClaimCliques(c) {
		cl := dbRows.Cliques[ci]
		tr := 0.0
		if trust != nil {
			tr = trust[cl.Source]
		}
		row := make([]float64, m.Dim())
		m.CliqueFeatures(dbRows, int(ci), tr, row)
		rows = append(rows, row)
		signs = append(signs, cl.Stance.Sign())
	}
	return rows, signs
}
