// Package em implements iCRF, the incremental inference algorithm of
// §3.2: Expectation-Maximization over the CRF where the E-step estimates
// claim marginals by constrained Gibbs sampling (Eq. 6-7) and the M-step
// fits the log-linear weights with the L2-regularised Trust Region Newton
// Method (Eq. 8). The engine keeps the Gibbs chain and the weights warm
// across validation iterations — the view-maintenance principle that
// avoids re-computation when new user input arrives — and exposes the
// component-restricted what-if inference used by the guidance strategies.
package em

import (
	"fmt"
	"sort"

	"factcheck/internal/crf"
	"factcheck/internal/factdb"
	"factcheck/internal/gibbs"
	"factcheck/internal/optimize"
	"factcheck/internal/stats"
)

// Config controls the inference budgets; see DESIGN.md §6 for the
// rationale behind the defaults.
type Config struct {
	// BurnIn/Samples are the Gibbs budgets of a full (cold) inference.
	BurnIn, Samples int
	// IncBurnIn/IncSamples are the budgets of an incremental inference
	// after one new label; warm chains need far less mixing.
	IncBurnIn, IncSamples int
	// EMIters is the number of E/M alternations per inference call.
	EMIters int
	// HypoBurn/HypoSamples are the budgets of a component-restricted
	// what-if run behind information gain.
	HypoBurn, HypoSamples int
	// DisableTrust zeroes the trust-coupling weight after every M-step,
	// removing the mutual-reinforcement channel. This is an ablation
	// knob (DESIGN.md), not part of the paper's model.
	DisableTrust bool
}

// DefaultConfig returns the budgets used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		BurnIn:      20,
		Samples:     60,
		IncBurnIn:   5,
		IncSamples:  30,
		EMIters:     2,
		HypoBurn:    4,
		HypoSamples: 8,
	}
}

// FingerprintText returns c in the %+v layout Config had while the
// M-step's settings and the E-step's parallelism were fields of it,
// those settings in their old places: session image fingerprints hash
// it, so stored images keep theirs. A field added to Config joins it.
func (c Config) FingerprintText() string {
	return fmt.Sprintf("{BurnIn:%d Samples:%d IncBurnIn:%d IncSamples:%d EMIters:%d HypoBurn:%d HypoSamples:%d "+
		"Workers:0 Lanes:<nil> Lambda:%v LabelWeight:%v UnlabeledWeight:0 TrustCap:%v AnchorPrior:%v Tron:%+v DisableTrust:%v}",
		c.BurnIn, c.Samples, c.IncBurnIn, c.IncSamples, c.EMIters, c.HypoBurn, c.HypoSamples,
		lambda, labelWeight, trustCap, anchorPrior, tron, c.DisableTrust)
}

// The served M-step's settings (DESIGN.md §6).
const (
	// lambda is the L2 regularisation of the M-step.
	lambda = 0.1
	// labelWeight is the example weight of the cliques of a claim that
	// carries user input (user input as a first-class citizen).
	labelWeight = 3
	// trustCap bounds |θ_trust|; the self-reinforcing trust feature
	// would otherwise run away in the absence of labels.
	trustCap = 0.3
	// anchorPrior controls how quickly trust coupling ramps up with user
	// input: trustCap is scaled by n_labels / (n_labels + anchorPrior),
	// so with zero labels the model stays at maximum entropy (DESIGN.md
	// §4) — inference strength grows with the input that justifies it
	// (§3.2, "mutual reinforcing relations ... further justified based
	// on user input").
	anchorPrior = 3
)

// tron configures the M-step solver.
var tron = optimize.Config{MaxIter: 25, CGMaxIter: 20, Tol: 1e-4}

// MStep is the served M-step (Eq. 8) over one set of labels: the
// weighted logistic objective, TRON warm-started from θ, and the
// projection of the trust weight onto the bound the labels justify.
type MStep struct {
	prob  *optimize.Logistic
	bound float64 // |θ_trust| after the projection
}

// NewMStep builds the served M-step for m over the labels in state.
// Its targets are the user labels, 0.5 for unlabelled claims, never
// E-step marginals: the trust *features* are anchored to user input
// only, otherwise the mirror solution, all weights and all marginals
// flipped, fits the labelled cliques equally well (DESIGN.md §4). The
// objective's examples are borrowed from optimize.Floats; its Release
// gives them back.
func NewMStep(m *crf.Model, state *factdb.State) *MStep {
	p := optimize.Floats.Borrow(m.DB.NumClaims)
	for c := range p {
		if v, ok := state.Label(c); !ok {
			p[c] = 0.5
		} else if v {
			p[c] = 1
		}
	}
	prob := m.MStepProblem(state, p, labelWeight, lambda)
	optimize.Floats.Return(p)
	n := float64(state.NumLabeled())
	return &MStep{prob: prob, bound: trustCap * (n / (n + anchorPrior))}
}

// Problem returns the step's objective: one example per clique of a
// labelled claim, none before the first label.
func (s *MStep) Problem() *optimize.Logistic { return s.prob }

// Next returns TRON's result on the objective warm-started from theta,
// with W, the next θ, projected (Clamp); Value is f before the
// projection.
func (s *MStep) Next(theta []float64) optimize.Result {
	res := Solve(s.prob, theta)
	s.Clamp(res.W)
	return res
}

// Clamp projects w's trust weight onto [−bound, bound] in place and
// reports whether it moved.
func (s *MStep) Clamp(w []float64) bool {
	ti := len(w) - 1
	v := w[ti]
	w[ti] = min(max(v, -s.bound), s.bound)
	return w[ti] != v
}

// Solve runs the M-step's solver on p warm-started from theta.
func Solve(p optimize.Problem, theta []float64) optimize.Result {
	return optimize.Minimize(p, theta, tron)
}

// Engine is an iCRF inference engine bound to one fact database.
type Engine struct {
	db    *factdb.DB
	model *crf.Model
	chain *gibbs.Chain
	cfg   Config

	workers int          // SetParallelism
	lanes   gibbs.Lender // SetParallelism

	samples *gibbs.SampleSet // Ω* of the most recent E-step
	inited  bool

	mstep MStepWork
	// builds counts the chain's table builds (live); like mstep it only
	// counts and is not part of the image.
	builds int
}

// MStepWork is the work an engine's M-steps have done since it was
// built: TRON solves, their objective passes, and the rows those passes
// read. It only counts; inference never reads it, and it is not part of
// the engine image, so a restored engine counts from zero.
type MStepWork struct {
	// Solves is the number of Minimize calls.
	Solves int
	// Passes sums the solves' Value, Gradient and HessianVec passes.
	Passes optimize.Passes
	// RowPasses sums examples × passes over the solves.
	RowPasses int64
}

func (w *MStepWork) add(res optimize.Result, rows int) {
	w.Solves++
	w.Passes.Value += res.Passes.Value
	w.Passes.Gradient += res.Passes.Gradient
	w.Passes.HessianVec += res.Passes.HessianVec
	w.RowPasses += int64(rows) * int64(res.Passes.Total())
}

// MStepWork returns the M-step work counted so far.
//
//lint:allow unreached ROADMAP item 16's M-step ledger counter, read by optimize's served tests until the ledger is wired
func (e *Engine) MStepWork() MStepWork { return e.mstep }

// NewEngine creates an engine with maximum-entropy initial parameters.
// Its chain holds no tables until the first sampling entry (live).
func NewEngine(db *factdb.DB, cfg Config, seed int64) *Engine {
	return &Engine{
		db:    db,
		model: crf.New(db),
		chain: gibbs.NewChain(db, stats.NewRNG(seed)),
		cfg:   cfg,
	}
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetParallelism bounds the goroutines of the component-sharded E-step
// (§5.1; results are bit-identical at every width): workers <= 0, the
// default, means GOMAXPROCS; lanes, when set, lends the goroutines
// beyond the caller (see gibbs.Lender). core.Session sets both.
func (e *Engine) SetParallelism(workers int, lanes gibbs.Lender) {
	e.workers, e.lanes = workers, lanes
}

// Model returns the CRF model (shared, not a copy).
func (e *Engine) Model() *crf.Model { return e.model }

// Theta returns a copy of the current parameters; used by the streaming
// engine to exchange parameters with Alg. 1 (§7).
func (e *Engine) Theta() []float64 {
	return append([]float64(nil), e.model.Theta...)
}

// SetTheta installs externally provided parameters (streaming reuse).
// A released chain takes them when its tables are built (live).
func (e *Engine) SetTheta(theta []float64) {
	e.model.SetTheta(theta)
	if !e.chain.Released() {
		e.chain.SetModel(e.model)
	}
}

// Grow extends the engine in place after the database was grown with
// factdb.DB.Extend: the chain grows its assignment and drops its tables,
// which the next sampling entry builds over the grown structure (live),
// and Ω* grows to cover the new claims with cleared bits. The new
// claims' marginals read 0 until their components are refreshed — the
// caller runs InferComponent on every component the extend dirtied (all
// new claims live in one of them) or a full sweep before marginals are
// consumed. rng must be a detached stream owned by the caller so growth
// never perturbs the chain's own sampling sequence.
func (e *Engine) Grow(rng *stats.RNG) {
	e.chain.Grow(rng)
	if e.samples != nil {
		if n := e.db.NumClaims - e.samples.NumClaims(); n > 0 {
			e.samples.Grow(n)
		}
	}
}

// ReleaseTables drops the chain's run table, agreement counters and
// sweep scratch (gibbs.Chain.Release) and the database's indexes
// (factdb.DB.ReleaseIndexes), and keeps θ, Ω*, the chain's own state
// and the database's rows, tail and components. The next sampling
// entry rebuilds both in O(cliques) (live), Rows and an ingest the
// indexes alone. The serving layer parks a session with it (DESIGN.md §7).
func (e *Engine) ReleaseTables() {
	e.chain.Release()
	e.db.ReleaseIndexes()
}

// Release drops the tables (ReleaseTables) and the database's base rows
// and indexes when it has a regenerator (factdb.DB.ReleaseBase), and
// keeps θ, Ω*, the chain's own state, the components and the tail, from
// which the engine image is written; the next sampling entry rebuilds
// both (live). core.Session.Release calls it (DESIGN.md §7).
func (e *Engine) Release() {
	e.ReleaseTables()
	e.db.ReleaseBase()
}

// TablesReleased reports whether the chain holds no tables (new, grown,
// installed from an image or released), without building them as Chain
// does.
func (e *Engine) TablesReleased() bool { return e.chain.Released() }

// TableBuilds returns how many times the engine has built its chain's
// tables since it was built or restored: once at its first sampling
// entry and once at the next after each Grow, InstallImage or release.
func (e *Engine) TableBuilds() int { return e.builds }

// Rows is the one door to the database for a reader that may find it
// released: it puts back the base and indexes a release dropped
// (factdb.DB.RegenerateBase), builds no sampler table, and returns the
// view. Only the session's goroutine calls it (DESIGN.md §7).
func (e *Engine) Rows() factdb.Rows {
	e.db.RegenerateBase()
	return e.db.Rows()
}

// live returns the engine's chain with its tables in place, the one
// caller of their builder: every sampling entry point comes through
// here, and a chain that is new, grown, installed from an image or
// released gets them from SetModel under the current θ — bit for bit
// what building them early would have given. A release drops the
// database's indexes, and maybe its base, with the chain, so a released
// chain comes through the door (Rows) first, in the same branch.
func (e *Engine) live() *gibbs.Chain {
	if e.chain.Released() {
		e.Rows()
		e.chain.SetModel(e.model)
		e.builds++
	}
	return e.chain
}

// InferFull performs the initial inference (line 2 of Alg. 1) with the
// full Gibbs budget, updating state probabilities in place.
func (e *Engine) InferFull(state *factdb.State) {
	e.live().InitFromState(state)
	e.infer(state, e.cfg.BurnIn, e.cfg.Samples)
	e.inited = true
}

// InferIncremental incorporates new user input (line 15 of Alg. 1) using
// the warm chain and reduced budgets; it falls back to InferFull when the
// engine has not been initialised.
func (e *Engine) InferIncremental(state *factdb.State) {
	if !e.inited {
		e.InferFull(state)
		return
	}
	e.live().SyncLabels(state)
	e.infer(state, e.cfg.IncBurnIn, e.cfg.IncSamples)
}

// InferComponent is the component-restricted incremental inference path
// behind dirty-component re-ranking: after a label lands in component
// comp, only that component's conditional distribution changes (the
// claim graph factorises over connected components and the model
// parameters stay frozen between full EM sweeps), so the engine clamps
// the new labels and resamples just that component — Ω* and the state
// marginals of every other component are left bit-for-bit untouched.
// The sweep draws from a detached stream seeded by seed (supplied by
// the caller's epoch bookkeeping), so the refresh is a pure function of
// (chain state, component, seed): deterministic under replay and
// independent of worker counts. It reports false — and does nothing —
// when the engine has no full inference to patch yet; the caller falls
// back to a full sweep.
func (e *Engine) InferComponent(state *factdb.State, comp int, seed int64) bool {
	if !e.inited || e.samples == nil || e.samples.NumSamples() == 0 {
		return false
	}
	ch := e.live()
	ch.SyncLabels(state)
	ch.RefreshComponent(e.samples, comp, e.cfg.IncBurnIn, seed)
	for _, c := range e.db.ComponentMembers(comp) {
		if !state.Labeled(int(c)) {
			state.SetP(int(c), e.samples.Marginal(int(c)))
		}
	}
	return true
}

// infer alternates E and M steps (Eq. 6-8). The caller has clamped the
// labels onto the chain (InitFromState or SyncLabels) and the chain
// carries the current θ's base scores (SetModel runs wherever θ is
// installed), so neither is redone per E-step.
func (e *Engine) infer(state *factdb.State, burn, samples int) {
	iters := e.cfg.EMIters
	if iters <= 0 {
		iters = 1
	}
	step := NewMStep(e.model, state)
	rows := step.Problem().Len()
	for it := 0; it < iters; it++ {
		// Intermediate E-step: Gibbs under the current θ. Only the chain
		// it leaves behind is used — the M-step reads no marginals and the
		// final E-step below replaces Ω* — so the sweeps run as pure
		// burn-in: the same sweeps and RNG draws as a recorded run, with
		// nothing recorded.
		e.chain.RunSharded(max(burn, 0)+max(samples, 0), 0, e.workers, e.lanes)
		if rows == 0 {
			continue // no training signal yet (no labels, supervised M-step)
		}
		res := step.Next(e.model.Theta)
		e.mstep.add(res, rows)
		if e.cfg.DisableTrust {
			res.W[len(res.W)-1] = 0
		}
		e.model.SetTheta(res.W)
		e.chain.SetModel(e.model)
	}
	step.Problem().Release()
	// Final E-step: the reported probabilities and Ω* must reflect the
	// final parameters, not the penultimate ones — early in a session θ
	// can still move substantially per M-step.
	ss := e.chain.RunSharded(burn, samples, e.workers, e.lanes)
	e.samples = ss
	for c := 0; c < e.db.NumClaims; c++ {
		if !state.Labeled(c) {
			state.SetP(c, ss.Marginal(c))
		}
	}
}

// Grounding instantiates the grounding from the latest samples (Eq. 10).
func (e *Engine) Grounding(state *factdb.State) factdb.Grounding {
	return gibbs.Decide(e.db, state, e.samples)
}

// Hypothetical runs the component-restricted what-if inference of §4.2 on
// the supplied chain (the engine's own chain, or a scoring worker's that
// adopted it): claim c is clamped to v, the chain mixes within c's
// component, and the resulting component marginals are returned. The
// chain is rolled back before returning.
func (e *Engine) Hypothetical(ch *gibbs.Chain, c int, v bool) gibbs.ComponentResult {
	return e.HypotheticalInto(nil, ch, c, v)
}

// HypotheticalInto is Hypothetical with caller-provided marginal storage
// (reused when its capacity suffices), for scoring loops that must not
// allocate per candidate.
func (e *Engine) HypotheticalInto(marg []float64, ch *gibbs.Chain, c int, v bool) gibbs.ComponentResult {
	comp := e.db.ComponentOf(c)
	snap := ch.SnapshotComponentScratch(comp)
	ch.Freeze(c, v)
	res := ch.RunComponentInto(marg, comp, e.cfg.HypoBurn, e.cfg.HypoSamples)
	ch.Restore(snap)
	return res
}

// SkipHypothetical leaves ch's stream where Hypothetical(ch, c, v) would,
// for either v, without running it: Hypothetical rolls everything else
// back, and how many words its run draws depends on the component's
// structure and frozen flags alone. What-if scoring skips this way the
// branch whose result it would weight by an exact zero.
func (e *Engine) SkipHypothetical(ch *gibbs.Chain, c int) {
	ch.SkipRunComponent(e.db.ComponentOf(c), c, e.cfg.HypoBurn, e.cfg.HypoSamples)
}

// Chain exposes the engine's own chain for sequential what-if use and
// for scoring rounds to adopt, its tables rebuilt first if Release
// dropped them.
func (e *Engine) Chain() *gibbs.Chain { return e.live() }

// HoldoutMarginals computes, for each claim in holdout, the credibility
// marginal the model would infer if that claim's user input were removed
// — with all other labels kept. Claims are grouped by connected
// component; each component is snapshotted, its holdout claims released,
// the chain mixed with the what-if budget, and the state rolled back.
// This backs the leave-one-out confirmation check of §5.2 (singleton
// holdouts) and the k-fold cross-validation precision estimate of §6.1.
func (e *Engine) HoldoutMarginals(state *factdb.State, holdout []int) []float64 {
	out := make([]float64, len(holdout))
	// Group holdout indices by component.
	byComp := make(map[int][]int)
	for i, c := range holdout {
		byComp[e.db.ComponentOf(c)] = append(byComp[e.db.ComponentOf(c)], i)
	}
	// Components are visited in sorted id order: they all draw from the
	// engine chain's single RNG stream, so map-iteration order would make
	// the marginals nondeterministic for a fixed seed.
	comps := make([]int, 0, len(byComp))
	for comp := range byComp {
		comps = append(comps, comp)
	}
	sort.Ints(comps)
	var marg []float64 // reused across components
	ch := e.live()
	for _, comp := range comps {
		idxs := byComp[comp]
		snap := ch.SnapshotComponentScratch(comp)
		for _, i := range idxs {
			ch.Unfreeze(holdout[i])
		}
		res := ch.RunComponentInto(marg, comp, e.cfg.HypoBurn, e.cfg.HypoSamples)
		marg = res.Marginals
		pos := make(map[int32]int, len(res.Members))
		for j, m := range res.Members {
			pos[m] = j
		}
		for _, i := range idxs {
			out[i] = res.Marginals[pos[int32(holdout[i])]]
		}
		ch.Restore(snap)
	}
	return out
}
