// Package core implements the complete validation process of §5 (Alg. 1):
// the iterative loop that selects claims by a guidance strategy, elicits
// user input, infers its implications with iCRF, and instantiates a
// grounding — plus the confirmation-check robustness mechanism of §5.2
// and the batched variant of §6.2.
package core

import (
	"errors"
	"fmt"

	"factcheck/internal/em"
	"factcheck/internal/factdb"
	"factcheck/internal/gibbs"
	"factcheck/internal/guidance"
	"factcheck/internal/stats"
)

// User elicits validation verdicts. Validate returns the user's verdict
// for a claim; ok = false means the user skips this claim (§8.5, missing
// user input), in which case the session falls back to the next-best
// candidate.
type User interface {
	Validate(claim int) (verdict bool, ok bool)
}

// Options configures a validation session.
type Options struct {
	// Strategy selects claims; defaults to the hybrid strategy of §4.4.
	Strategy guidance.Strategy
	// Budget is the effort budget b (maximum number of validations);
	// 0 means |C|.
	Budget int
	// Goal is the validation goal Δ, evaluated after each iteration; a
	// nil goal never stops the loop early.
	Goal func(*Session) bool
	// BatchSize is the number of claims validated per iteration (§6.2);
	// values below 2 disable batching.
	BatchSize int
	// CandidatePool bounds what-if scoring (0 = all unlabelled claims).
	CandidatePool int
	// Workers bounds parallel what-if scoring and the component-sharded
	// E-step (0 = GOMAXPROCS); the session hands it, with Lanes, to its
	// engine (em.Engine.SetParallelism). Selection traces and inference
	// results are bit-identical across worker counts for a fixed Seed.
	Workers int
	// Lanes, when set, lends both parallel sections (what-if scoring and
	// the sharded E-step) their goroutines beyond the caller, per section
	// (see gibbs.Lender); a server installs its shared lane budget here.
	// nil runs Workers goroutines. Any grant is trace-neutral.
	Lanes gibbs.Lender
	// ConfirmEvery triggers the §5.2 confirmation check each time this
	// fraction of |C| has been validated since the previous check
	// (e.g. 0.01 per §8.5); 0 disables the check.
	ConfirmEvery float64
	// FullSweepEvery is the cadence of full EM parameter sweeps in
	// single-claim mode. Between full sweeps each answer triggers only a
	// component-restricted, frozen-θ resample of the answered claim's
	// connected component, and the guidance layer re-scores only that
	// dirty component (the cross-answer gain cache) — the per-answer
	// path the serving stack rides. Full sweeps also run for the first
	// FullSweepEvery answers, while the anchoring ramp still moves θ
	// substantially per label, and whenever a confirmation check repairs
	// labels. 1 is the paper's per-answer EM, the path every figure of
	// the experiment harness runs: the session then creates no gain
	// cache at all and scores every round under one fresh RNG draw
	// (guidance.Pool.Score). 0 selects DefaultFullSweepEvery. Selection
	// traces remain bit-identical across worker counts and across cache
	// modes for any value.
	FullSweepEvery int
	// EM configures the inference engine.
	EM em.Config
	// Seed drives all session randomness.
	Seed int64
}

// batchW is the balance weight w of Eq. 27 the batch selector of §6.2
// runs with.
const batchW = 4.0

// DefaultFullSweepEvery is the full-EM cadence a zero
// Options.FullSweepEvery selects: one parameter sweep every four
// answers, with the three answers in between served by the incremental
// dirty-component path.
const DefaultFullSweepEvery = 4

func (o Options) withDefaults() Options {
	if o.Strategy == nil {
		o.Strategy = &guidance.Hybrid{}
	}
	if o.FullSweepEvery == 0 {
		o.FullSweepEvery = DefaultFullSweepEvery
	}
	if o.FullSweepEvery < 1 {
		o.FullSweepEvery = 1
	}
	if o.EM == (em.Config{}) {
		o.EM = em.DefaultConfig()
	}
	return o
}

// cachesGains reports whether the session keeps a cross-answer gain
// cache. Batch assembly re-scores interactively in the marginal-gain
// sense, and a cadence of 1 runs a full EM sweep per answer, so in both
// cases nothing is ever reusable — no cache is created and scoring
// seeds come from a per-round RNG draw.
func (o Options) cachesGains() bool { return o.BatchSize < 2 && o.FullSweepEvery != 1 }

// Validation records one elicited verdict. (The two flags go last, so
// a record is 24 bytes rather than 32.)
type Validation struct {
	Claim, Iter       int
	Verdict, Repaired bool // Repaired is set when a confirmation check replaced the verdict
}

// Session is a running validation process over one fact database.
type Session struct {
	DB     *factdb.DB
	State  *factdb.State
	Engine *em.Engine

	opts       Options
	rng        *stats.RNG
	pool       *guidance.Pool      // what-if scoring: lanes borrowed per round
	gains      *guidance.GainCache // cross-answer gain cache (nil in batch mode / cadence 1)
	sinceSweep int                 // answers and ingests since the last full EM sweep
	ingests    int                 // corpus deltas applied (seeds their detached RNG streams)
	hybrid     *guidance.Hybrid    // non-nil when the strategy is hybrid
	grounding  factdb.Grounding
	prevGnd    factdb.Grounding
	zScore     float64
	iter       int
	history    []Validation
	lastCheck  int // labels at the previous confirmation check
	// prompted records the verdict a claim held the last time a
	// confirmation check re-elicited it, bounding repeated re-elicitation
	// of the same verdict.
	prompted map[int]bool
	// elog records every elicitation (including skips and repair
	// prompts) and every corpus arrival in order; TranscriptTail rebuilds
	// from it the replayable part of a Snapshot. digest is the running
	// digest of that transcript (digestElicitation) and config the
	// fingerprint of what else the state is a function of; both go into
	// a state image's header. restored says how the session was built.
	elog     []logEntry
	digest   uint64
	config   uint64
	restored Restored
	// pending caches the current iteration's full ranking so that
	// Pending can be called repeatedly (e.g. by a server handling
	// repeated GET /next requests) without advancing the session RNG;
	// pendingOK distinguishes "computed and empty" from "not computed".
	pending   []int
	pendingOK bool
	// skipped marks a first skip of the cached ranking's head, recorded
	// by Answer (§8.5): the question has moved to the second-best
	// candidate. It belongs to that ranking and goes with it.
	skipped bool
	// rngAtRank is the session RNG's state at the start of the cached
	// ranking's scoring round; Ingest rewinds to it when it discards a
	// computed-but-unconsumed ranking (see ranked).
	rngAtRank stats.RNG
	// degraded selects the overload fallback for the next computed
	// ranking (SetDegraded); pendingDegraded is the mode the cached
	// ranking was actually computed under — captured at ranking time so a
	// mid-iteration mode flip cannot perturb the iteration's trace.
	degraded        bool
	pendingDegraded bool
	closed          bool

	// Observer, when set, runs after every iteration (used by the
	// experiment harness to trace precision and indicator curves).
	Observer func(*Session)
}

// NewSession builds a session and performs the initial inference and
// grounding (Alg. 1 lines 1-4). It panics when the database is unusable;
// callers that must handle invalid input gracefully use OpenSession.
func NewSession(db *factdb.DB, opts Options) *Session {
	s, err := OpenSession(db, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// OpenSession is NewSession with input validation: it rejects a nil or
// empty database with an error instead of panicking deep inside the
// inference engine.
func OpenSession(db *factdb.DB, opts Options) (*Session, error) {
	if err := checkDB(db); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	return openSession(db, opts, configFingerprint(db, opts)), nil
}

func checkDB(db *factdb.DB) error {
	if db == nil {
		return errors.New("core: nil fact database")
	}
	if db.NumClaims <= 0 {
		return errors.New("core: empty corpus (no claims to validate)")
	}
	if len(db.Sources) == 0 || len(db.Documents) == 0 {
		return errors.New("core: corpus carries no evidence (no sources or documents)")
	}
	return nil
}

// newSession builds a session over a checked database with no
// inference run: maximum-entropy state, a fresh engine, the streams
// the seed opens. opts carries its defaults and config is their
// fingerprint over the base corpus (configFingerprint).
func newSession(db *factdb.DB, opts Options, config uint64) *Session {
	s := &Session{
		DB:       db,
		State:    factdb.NewState(db.NumClaims),
		Engine:   em.NewEngine(db, opts.EM, opts.Seed),
		opts:     opts,
		config:   config,
		rng:      stats.NewRNG(opts.Seed + 1),
		prompted: make(map[int]bool),
	}
	s.Engine.SetParallelism(opts.Workers, opts.Lanes)
	s.pool = guidance.NewPool(s.Engine)
	if opts.cachesGains() {
		s.gains = guidance.NewGainCache(opts.Seed)
	}
	if h, ok := opts.Strategy.(*guidance.Hybrid); ok {
		s.hybrid = h
	}
	return s
}

// openSession is newSession plus the initial inference and grounding
// (Alg. 1 lines 1-4).
func openSession(db *factdb.DB, opts Options, config uint64) *Session {
	s := newSession(db, opts, config)
	s.Engine.InferFull(s.State)
	s.grounding = s.Engine.Grounding(s.State)
	s.prevGnd = s.grounding.Clone()
	return s
}

// Grounding returns the current grounding g_i.
func (s *Session) Grounding() factdb.Grounding { return s.grounding }

// PrevGrounding returns g_{i−1}, for the amount-of-changes indicator.
func (s *Session) PrevGrounding() factdb.Grounding { return s.prevGnd }

// Iterations returns the number of completed iterations.
func (s *Session) Iterations() int { return s.iter }

// History returns the elicited validations in order.
func (s *Session) History() []Validation { return s.history }

// ZScore returns the current hybrid score z_i.
func (s *Session) ZScore() float64 { return s.zScore }

// Effort returns |C_L| / |C|.
func (s *Session) Effort() float64 { return s.State.Effort() }

// ctx assembles the guidance context for the current iteration. Every
// ranking comes through here, so a base or indexes that a release
// dropped are regenerated first: scoring reads its rows and source lists.
func (s *Session) ctx() *guidance.Context {
	s.DB.RegenerateBase()
	return &guidance.Context{
		DB:            s.DB,
		State:         s.State,
		Engine:        s.Engine,
		Grounding:     s.grounding,
		RNG:           s.rng,
		CandidatePool: s.opts.CandidatePool,
		Workers:       s.opts.Workers,
		Lanes:         s.opts.Lanes,
		Pool:          s.pool,
		Gains:         s.gains,
	}
}

// GainCache exposes the session's cross-answer gain cache (nil in
// batch mode and at FullSweepEvery = 1, where nothing is ever
// reusable). Tests and benchmarks flip it to full-recompute mode to assert
// — and price — the cache's exactness; call SetFullRecompute before the
// first Step so both modes see identical epochs from the start.
func (s *Session) GainCache() *guidance.GainCache { return s.gains }

// inferAfterLabels runs the post-answer inference of Alg. 1 line 15.
// When exactly one label landed and the full-sweep cadence permits, the
// engine resamples only the answered claim's connected component under
// frozen parameters and the gain cache marks just that component dirty;
// otherwise (batch answers, warm-up, cadence reached, or an engine that
// cannot patch incrementally) a full EM sweep runs and everything is
// invalidated.
func (s *Session) inferAfterLabels(labeled []int) {
	if s.gains != nil && len(labeled) == 1 && !s.sweepDue() {
		comp := s.DB.ComponentOf(labeled[0])
		s.gains.InvalidateComponent(comp)
		if s.Engine.InferComponent(s.State, comp, s.gains.SweepSeed(comp)) {
			return
		}
	}
	s.fullSweep()
}

// sweepDue is the full-sweep cadence, the one decision answers and
// ingests share: it counts one more event since the last full EM sweep
// and reports whether this one must be a full sweep too — the
// FullSweepEvery-th, or any event of the warm-up, while no more than
// FullSweepEvery claims carry a label.
func (s *Session) sweepDue() bool {
	s.sinceSweep++
	every := s.opts.FullSweepEvery
	return s.sinceSweep >= every || s.State.NumLabeled() <= every
}

// fullSweep runs a full EM inference and invalidates every cached gain
// — the fallback of the incremental path and the periodic θ refresh.
func (s *Session) fullSweep() {
	s.Engine.InferIncremental(s.State)
	if s.gains != nil {
		s.gains.InvalidateAll()
	}
	s.sinceSweep = 0
}

// Step runs one iteration of Alg. 1 (lines 7-19) and reports Done()
// after it; on a Done or closed session it does nothing. In single-claim
// mode the skipping fallback of §8.5 applies: when the user skips the
// top-ranked claim, the second-best candidate is validated instead. In
// batch mode (§6.2) a greedy top-k batch is elicited and inference runs
// once for the whole batch.
func (s *Session) Step(user User) (done bool) {
	if s.closed || s.Done() {
		return true
	}
	if s.hybrid != nil {
		s.hybrid.Z = s.zScore
	}
	type pick struct {
		c int
		v bool
	}
	var picks []pick
	if s.opts.BatchSize >= 2 {
		b := &guidance.BatchSelector{W: batchW, K: s.opts.BatchSize}
		for _, c := range b.SelectBatch(s.ctx(), s.opts.BatchSize) {
			v, ok := s.ask(user, c)
			if !ok {
				v = s.State.P(c) >= 0.5 // a skip inside a batch accepts the model value
			}
			picks = append(picks, pick{c, v})
		}
	} else {
		ranked := s.ranked()
		if len(ranked) == 0 {
			return true
		}
		// A pending skip (Answer) has already asked the top claim.
		c, v, ok := ranked[0], false, false
		if !s.skipped {
			v, ok = s.ask(user, c)
		}
		if !ok && len(ranked) > 1 {
			// User skipped: validate the second-best candidate (§8.5).
			c = ranked[1]
			v, ok = s.ask(user, c)
		}
		if !ok {
			v = s.State.P(c) >= 0.5 // a repeated skip accepts the model value
		}
		picks = append(picks, pick{c, v})
	}

	// (2) Record input and compute the error rate ε_i (lines 10-13).
	s.invalidatePending()
	var eps float64
	labeled := make([]int, 0, len(picks))
	for _, p := range picks {
		eps = guidance.ErrorRate(s.State.P(p.c), s.grounding[p.c])
		s.State.SetLabel(p.c, p.v)
		s.history = append(s.history, Validation{Claim: p.c, Verdict: p.v, Iter: s.iter})
		labeled = append(labeled, p.c)
	}

	// (3) Infer implications (line 15) — component-restricted when the
	// answer's reach allows it, a full EM sweep otherwise.
	s.inferAfterLabels(labeled)

	// (4) Decide on the grounding (line 16).
	s.prevGnd = s.grounding
	s.grounding = s.Engine.Grounding(s.State)

	// Lines 17-18: unreliable-source ratio and hybrid score.
	r := guidance.UnreliableRatio(s.DB, s.grounding)
	h := float64(s.State.NumLabeled()) / float64(s.DB.NumClaims)
	s.zScore = guidance.HybridScore(eps, r, h)
	s.iter++

	// Periodic confirmation check (§5.2).
	if s.opts.ConfirmEvery > 0 {
		period := int(s.opts.ConfirmEvery * float64(s.DB.NumClaims))
		if period < 1 {
			period = 1
		}
		if s.State.NumLabeled()-s.lastCheck >= period {
			s.ConfirmationCheck(user)
			s.lastCheck = s.State.NumLabeled()
		}
	}

	if s.Observer != nil {
		s.Observer(s)
	}
	return s.Done()
}

// Run iterates until the goal Δ holds, the budget b is exhausted, or no
// claims remain (Alg. 1 line 6); it returns the number of validations
// elicited, repairs included.
func (s *Session) Run(user User) int {
	for !s.Done() {
		if s.opts.Goal != nil && s.opts.Goal(s) {
			break
		}
		if s.Step(user) {
			break
		}
	}
	return len(s.history)
}

// Done reports that the loop has nothing left to ask (Alg. 1 line 6):
// the effort budget b is reached or every claim is labelled (until an
// ingest brings new claims). Then Step does nothing, Pending names no
// claim and Answer returns ErrDone.
func (s *Session) Done() bool {
	n := s.State.NumLabeled()
	return n >= s.DB.NumClaims || s.opts.Budget > 0 && n >= s.opts.Budget
}

// Release drops what the session can rebuild exactly, at any step
// boundary: the sampler tables and, when a regenerator can rebuild it,
// the base of the database (em.Engine.Release); the gain cache's
// entries, which a later round re-scores bit for bit
// (guidance.GainCache.Release); and the slack of the history and the
// transcript, copied to their length. What it drops comes back where it
// is next read: sampling rebuilds the tables and the base
// (em.Engine.live), and a ranking (ctx) or an ingest (factdb.DB.Extend)
// regenerates the base. When to release is the caller's choice; the
// serving layer releases a session that is Done, and only the tables
// and the database's indexes of one it parks (Engine.ReleaseTables,
// DESIGN.md §7): a parked session keeps θ, Ω*, the database's rows and
// the gain entries, whose regeneration would cost a corpus build or a
// re-score, and its next sampling entry rebuilds the tables and
// indexes in O(cliques), bit for bit (a ranking, the indexes alone).
func (s *Session) Release() {
	s.Engine.Release()
	if s.gains != nil {
		s.gains.Release()
	}
	s.history, s.elog = exact(s.history), exact(s.elog)
}

// exact returns s, copied to a backing array of its length if it has
// spare capacity.
func exact[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// CheckResult reports a §5.2 confirmation check.
type CheckResult struct {
	// Flagged lists the validated claims whose leave-one-out grounding
	// disagrees with the user input.
	Flagged []int
	// Repaired counts flagged claims whose re-elicited verdict differed
	// from the stored label (the label was updated).
	Repaired int
}

// ConfirmationCheck performs the robustness check of §5.2: for every
// validated claim c it constructs the grounding g_i~c from all
// information except c's validation, flags disagreements as potential
// mistakes, and re-elicits the user's verdict for flagged claims. Each
// re-elicitation is appended to History (extra effort). A claim flagged
// with the same verdict it was already re-elicited for is not prompted
// again — a verdict is binary, so every claim costs at most two repair
// prompts over the whole session, keeping the label+repair effort of
// Fig. 7 bounded.
func (s *Session) ConfirmationCheck(user User) CheckResult {
	if s.closed {
		return CheckResult{}
	}
	labeled := s.State.LabeledClaims()
	if len(labeled) == 0 {
		return CheckResult{}
	}
	marg := s.Engine.HoldoutMarginals(s.State, labeled)
	var res CheckResult
	changed := false
	for i, c := range labeled {
		v, _ := s.State.Label(c)
		loo := marg[i] >= 0.5
		if loo == v {
			continue
		}
		res.Flagged = append(res.Flagged, c)
		if last, ok := s.prompted[c]; ok && last == v {
			continue // this verdict was already re-confirmed once
		}
		s.prompted[c] = v
		v2, ok := s.ask(user, c)
		if !ok {
			continue
		}
		s.history = append(s.history, Validation{Claim: c, Verdict: v2, Iter: s.iter, Repaired: true})
		if v2 != v {
			s.State.SetLabel(c, v2)
			res.Repaired++
			changed = true
		}
	}
	if changed {
		// Repairs rewrite already-anchored labels; their reach through the
		// M-step is global, so take the full-invalidation fallback.
		s.invalidatePending()
		s.fullSweep()
		s.prevGnd = s.grounding
		s.grounding = s.Engine.Grounding(s.State)
	}
	return res
}

// Precision returns the grounding precision against a known truth; a
// convenience for experiments (the paper simulates users from ground
// truth, §8.1).
func (s *Session) Precision(truth []bool) float64 {
	return s.grounding.Precision(truth)
}

// String implements fmt.Stringer.
func (s *Session) String() string {
	return fmt.Sprintf("session{iter=%d labels=%d/%d z=%.3f}",
		s.iter, s.State.NumLabeled(), s.DB.NumClaims, s.zScore)
}
