// Package guidance implements the user-guidance strategies of §4 — the
// first step of the validation process: selecting the claim(s) whose
// validation is most beneficial. It provides the random and
// uncertainty-sampling baselines of §8.4, the information-driven (§4.2)
// and source-driven (§4.3) strategies built on what-if iCRF inference,
// the hybrid roulette of §4.4, and the submodular batch selection of
// §6.2.
package guidance

import (
	"math"
	"sort"

	"factcheck/internal/em"
	"factcheck/internal/entropy"
	"factcheck/internal/factdb"
	"factcheck/internal/gibbs"
	"factcheck/internal/stats"
)

// Context carries the per-iteration inputs a strategy may consult.
type Context struct {
	DB     *factdb.DB
	State  *factdb.State
	Engine *em.Engine
	// Grounding is g_{i−1}, the grounding of the previous iteration.
	Grounding factdb.Grounding
	// RNG drives stochastic strategies (random baseline, hybrid roulette)
	// and seeds each scoring round's deterministic what-if streams.
	RNG *stats.RNG
	// CandidatePool bounds the number of claims scored by the what-if
	// strategies (§5.1's parallelisation note); 0 scores every
	// unlabelled claim.
	CandidatePool int
	// Workers bounds the goroutines used for what-if scoring; 0 means
	// GOMAXPROCS. Rankings are byte-identical across worker counts for a
	// fixed seed.
	Workers int
	// Lanes, when set, lends each scoring round its goroutines beyond
	// the caller (see gibbs.Lender); nil runs Workers goroutines.
	Lanes gibbs.Lender
	// Pool is the persistent scoring pool; sessions share one across
	// iterations. A nil Pool is created (and cached) on first use.
	Pool *Pool
	// Gains is the optional cross-answer gain cache. When set, what-if
	// scoring seeds derive from per-component epochs (not from a
	// per-round RNG draw) and the strategies re-score only components
	// whose epoch moved since they were last scored, merging cached
	// gains for clean ones. When nil, every round re-scores everything
	// under a fresh base draw — the paper's per-answer semantics, which
	// the experiments (FullSweepEvery = 1) and batch assembly run.
	Gains *GainCache
}

// Strategy ranks unlabelled claims by expected validation benefit.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Rank returns up to k distinct unlabelled claims in descending
	// preference; an empty slice means nothing is left to validate.
	Rank(ctx *Context, k int) []int
}

// Random is the random-selection baseline of §8.4.
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return "random" }

// Rank implements Strategy.
func (Random) Rank(ctx *Context, k int) []int {
	unl := ctx.State.Unlabeled()
	ctx.RNG.Shuffle(len(unl), func(i, j int) { unl[i], unl[j] = unl[j], unl[i] })
	if len(unl) > k {
		unl = unl[:k]
	}
	return unl
}

// Uncertainty is the uncertainty-sampling baseline of §8.4: it picks the
// most "problematic" claim, the one whose credibility probability has
// maximal binary entropy.
type Uncertainty struct{}

// Name implements Strategy.
func (Uncertainty) Name() string { return "uncertainty" }

// Rank implements Strategy. Entropies are computed once per claim before
// sorting — the comparator runs O(n log n) times and must not re-derive
// them.
func (Uncertainty) Rank(ctx *Context, k int) []int {
	unl := ctx.State.Unlabeled()
	h := make([]float64, len(unl))
	idx := make([]int, len(unl))
	for i, c := range unl {
		h[i] = stats.BinaryEntropy(ctx.State.P(c))
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if h[idx[a]] != h[idx[b]] {
			return h[idx[a]] > h[idx[b]]
		}
		return unl[idx[a]] < unl[idx[b]]
	})
	out := make([]int, 0, min(k, len(unl)))
	for _, i := range idx {
		out = append(out, unl[i])
		if len(out) == k {
			break
		}
	}
	return out
}

// candidates returns the claims the what-if strategies will score: the
// CandidatePool most uncertain unlabelled claims (all of them when the
// pool is 0 or larger than |C_U|).
func candidates(ctx *Context) []int {
	unl := (Uncertainty{}).Rank(ctx, ctx.State.Len())
	if ctx.CandidatePool > 0 && len(unl) > ctx.CandidatePool {
		unl = unl[:ctx.CandidatePool]
	}
	return unl
}

// rankByGain sorts candidates by gain (descending, ties by id).
func rankByGain(cand []int, gains []float64, k int) []int {
	idx := make([]int, len(cand))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if gains[idx[a]] != gains[idx[b]] {
			return gains[idx[a]] > gains[idx[b]]
		}
		return cand[idx[a]] < cand[idx[b]]
	})
	out := make([]int, 0, k)
	for _, i := range idx {
		out = append(out, cand[i])
		if len(out) == k {
			break
		}
	}
	return out
}

// InfoGain is the information-driven strategy of §4.2: select the claim
// whose validation maximally reduces the claim-entropy of the database
// (Eq. 14–16), estimated by component-restricted what-if inference.
type InfoGain struct{}

// Name implements Strategy.
func (InfoGain) Name() string { return "info" }

// Rank implements Strategy.
func (InfoGain) Rank(ctx *Context, k int) []int {
	cand := candidates(ctx)
	if len(cand) == 0 {
		return nil
	}
	gains := InformationGains(ctx, cand)
	return rankByGain(cand, gains, k)
}

// InformationGains returns IG_C(c) (Eq. 15) for each candidate.
func InformationGains(ctx *Context, cand []int) []float64 {
	return whatIfGains(ctx, cand, gainInfo)
}

// beforeEntropy computes a component's "before" entropy for a gain kind:
// the Eq. 13 claim entropy for the information-driven strategy, the
// Eq. 17-derived source entropy under the previous grounding for the
// source-driven one. Both depend only on the component's frozen state
// for this epoch, so candidates sharing a component share the value and
// the gain cache may carry it across answers while the component stays
// clean.
func beforeEntropy(ctx *Context, kind gainKind, comp int) float64 {
	if kind == gainInfo {
		return entropy.ApproxClaims(ctx.State, ctx.DB.ComponentMembers(comp))
	}
	h := 0.0
	for _, s := range ctx.DB.ComponentSources(comp) {
		h += stats.BinaryEntropy(sourceTrustGrounded(ctx.DB, int(s), ctx.Grounding))
	}
	return h
}

// whatIfGain scores one candidate with the worker's what-if chains; hCur
// is the candidate's component "before" entropy. Both branch entropies
// are finite and ≥ 0, so a branch whose weight is exactly 0 adds +0
// whatever it holds and is not run: at P(c) = 1 the false branch, which
// runs last, is dropped; at P(c) = 0 the true branch is skipped over,
// the worker's stream moved to where its draws would have left it, so
// the false branch draws what it would have (DESIGN.md §7).
func whatIfGain(ctx *Context, kind gainKind, w *Worker, c int, hCur float64) float64 {
	p := ctx.State.P(c)
	var hPlus, hMinus float64
	if p != 0 {
		hPlus = hypoEntropy(ctx, kind, w, c, true)
	} else {
		ctx.Engine.SkipHypothetical(w.Chain, c)
	}
	if p != 1 {
		hMinus = hypoEntropy(ctx, kind, w, c, false)
	}
	return hCur - (p*hPlus + (1-p)*hMinus)
}

// hypoEntropy runs the what-if branch x_c = v on the worker and returns
// the gain family's entropy of c's component under it.
func hypoEntropy(ctx *Context, kind gainKind, w *Worker, c int, v bool) float64 {
	res := w.Hypo(ctx.Engine, c, v)
	if kind == gainInfo {
		return hypoClaimEntropy(ctx.State, res, c)
	}
	srcs := ctx.DB.ComponentSources(ctx.DB.ComponentOf(c))
	return hypoSourceEntropy(ctx.DB, w, srcs, res, c, v)
}

// whatIfGains evaluates a gain family over the candidates. Without a
// gain cache every candidate is scored under a fresh per-round base
// draw (Pool.Score). With one, gains cached for clean
// components are merged in and only the remainder — candidates whose
// component epoch moved, typically just the answered claim's component —
// is scored, under epoch-derived seeds that make each gain an exact,
// reproducible function of the component's state. The two paths inside
// a cached session (reuse on or SetFullRecompute) are bit-identical by
// construction.
func whatIfGains(ctx *Context, cand []int, kind gainKind) []float64 {
	if len(cand) == 0 {
		return nil
	}
	gc := ctx.Gains
	var gains []float64   // allocated only on the cached path
	need := cand          // candidates requiring a scoring round
	needIdx := []int(nil) // positions of need within gains; nil = identity
	if gc != nil {
		gains = make([]float64, len(cand))
		need = make([]int, 0, len(cand))
		needIdx = make([]int, 0, len(cand))
		for i, c := range cand {
			comp := ctx.DB.ComponentOf(c)
			if g, ok := gc.gain(kind, c, comp); ok {
				gains[i] = g
				continue
			}
			need = append(need, c)
			needIdx = append(needIdx, i)
		}
		if len(need) == 0 {
			return gains
		}
	}

	// "Before" entropies, one per distinct component being scored. They
	// are resolved up front (through the cache when present) so the
	// scoring closure below only reads this map — workers never touch
	// shared cache state concurrently.
	compH := make(map[int]float64)
	for _, c := range need {
		comp := ctx.DB.ComponentOf(c)
		if _, ok := compH[comp]; ok {
			continue
		}
		if gc != nil {
			compH[comp] = gc.entropyFor(kind, comp, func() float64 { return beforeEntropy(ctx, kind, comp) })
		} else {
			compH[comp] = beforeEntropy(ctx, kind, comp)
		}
	}

	fn := func(w *Worker, c int) float64 {
		return whatIfGain(ctx, kind, w, c, compH[ctx.DB.ComponentOf(c)])
	}
	var scored []float64
	if gc != nil {
		scored = ctx.pool().ScoreSeeded(ctx, need, func(c int) int64 {
			comp := ctx.DB.ComponentOf(c)
			return stats.StreamSeed(gc.scoreBase(kind, comp), uint64(c))
		}, fn)
	} else {
		scored = ctx.pool().Score(ctx, need, fn)
	}
	if needIdx == nil {
		return scored
	}
	for j, v := range scored {
		gc.storeGain(kind, need[j], ctx.DB.ComponentOf(need[j]), v)
		gains[needIdx[j]] = v
	}
	return gains
}

// hypoClaimEntropy computes the Eq. 13 entropy of a component under
// what-if marginals; the clamped claim contributes zero (it would be
// labelled), and already-labelled claims contribute zero as always.
func hypoClaimEntropy(state *factdb.State, res gibbs.ComponentResult, clamped int) float64 {
	h := 0.0
	for i, m := range res.Members {
		if int(m) == clamped || state.Labeled(int(m)) {
			continue
		}
		h += stats.BinaryEntropy(res.Marginals[i])
	}
	return h
}

// SourceGain is the source-driven strategy of §4.3: select the claim
// whose validation maximally reduces the uncertainty of source
// trustworthiness (Eq. 19–21).
type SourceGain struct{}

// Name implements Strategy.
func (SourceGain) Name() string { return "source" }

// Rank implements Strategy.
func (SourceGain) Rank(ctx *Context, k int) []int {
	cand := candidates(ctx)
	if len(cand) == 0 {
		return nil
	}
	gains := SourceGains(ctx, cand)
	return rankByGain(cand, gains, k)
}

// SourceGains returns IG_S(c) (Eq. 20) for each candidate. Source
// trustworthiness Pr(s) follows Eq. 17: the fraction of the source's
// claims deemed credible — under the current grounding for the "before"
// entropy, and under thresholded what-if marginals for the conditional
// entropy. Components are closed under shared sources, so only the
// candidate's component contributes to the difference.
func SourceGains(ctx *Context, cand []int) []float64 {
	return whatIfGains(ctx, cand, gainSource)
}

// sourceTrustGrounded is Eq. 17 for a single source.
func sourceTrustGrounded(db *factdb.DB, s int, g factdb.Grounding) float64 {
	claims := db.SourceClaims(s)
	if len(claims) == 0 {
		return 0.5
	}
	n := 0
	for _, c := range claims {
		if g[c] {
			n++
		}
	}
	return float64(n) / float64(len(claims))
}

// hypoSourceEntropy computes H_S over the component's sources with the
// what-if marginals thresholded at 0.5 (claim c forced to v). The
// thresholded values go into the worker's claim-indexed scratch:
// components are closed under shared sources, so every claim of srcs is
// a member of res and is written before it is read.
func hypoSourceEntropy(db *factdb.DB, w *Worker, srcs []int32, res gibbs.ComponentResult, c int, v bool) float64 {
	if len(w.cred) < db.NumClaims {
		w.cred = make([]bool, db.NumClaims)
	}
	cred := w.cred
	for i, m := range res.Members {
		cred[m] = res.Marginals[i] >= 0.5
	}
	cred[c] = v
	h := 0.0
	for _, s := range srcs {
		claims := db.SourceClaims(int(s))
		if len(claims) == 0 {
			h += stats.BinaryEntropy(0.5)
			continue
		}
		n := 0
		for _, cl := range claims {
			if cred[cl] {
				n++
			}
		}
		h += stats.BinaryEntropy(float64(n) / float64(len(claims)))
	}
	return h
}

// Hybrid is the dynamic strategy of §4.4: a roulette wheel chooses the
// source-driven strategy with probability Z and the information-driven
// strategy otherwise. Alg. 1 updates Z each iteration via HybridScore.
type Hybrid struct {
	// Z is the score z_{i−1} of Eq. 23.
	Z float64
}

// Name implements Strategy.
func (*Hybrid) Name() string { return "hybrid" }

// Rank implements Strategy.
func (h *Hybrid) Rank(ctx *Context, k int) []int {
	if ctx.RNG.Float64() < h.Z {
		return (SourceGain{}).Rank(ctx, k)
	}
	return (InfoGain{}).Rank(ctx, k)
}

// HybridScore computes z_i = 1 − e^{−(ε_i·(1−h_i) + r_i·h_i)} (Eq. 23)
// from the error rate ε_i, the unreliable-source ratio r_i, and the user
// input ratio h_i = i/|C|.
func HybridScore(errRate, unreliableRatio, inputRatio float64) float64 {
	return 1 - math.Exp(-(errRate*(1-inputRatio) + unreliableRatio*inputRatio))
}

// UnreliableRatio computes r_i (Alg. 1, line 17): the fraction of sources
// whose Eq. 17 trustworthiness under grounding g falls below 0.5.
func UnreliableRatio(db *factdb.DB, g factdb.Grounding) float64 {
	if len(db.Sources) == 0 {
		return 0
	}
	n := 0
	for s := range db.Sources {
		if sourceTrustGrounded(db, s, g) < 0.5 {
			n++
		}
	}
	return float64(n) / float64(len(db.Sources))
}

// ErrorRate computes ε_i (Eq. 22): the surprise of user input v for claim
// c against the previous iteration's probability.
func ErrorRate(prevP float64, prevGrounding bool) float64 {
	if prevGrounding {
		return 1 - prevP
	}
	return prevP
}
