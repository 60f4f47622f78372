package guidance

import (
	"factcheck/internal/em"
	"factcheck/internal/gibbs"
	"factcheck/internal/stats"
)

// Pool is the persistent parallel scoring engine behind the what-if
// strategies (§5.1). It replaces the old clone-per-Rank scheme: worker
// chains are long-lived (owned by the engine, resynchronised in place at
// the start of every scoring round) and each Worker carries reusable
// marginal buffers, so a steady-state Rank call performs no O(|C|)
// allocations.
//
// Scoring is deterministic by construction: every candidate's what-if
// chain RNG is reseeded from (round base, claim id), and each what-if
// excursion is rolled back before the worker moves on, so a candidate's
// gain is a pure function of the synced chain state — independent of the
// worker count and of task scheduling. Rankings are therefore
// byte-identical for a fixed seed whether one worker scores everything or
// GOMAXPROCS workers share the queue.
//
// A Pool is attached to a session (core.Session wires one into every
// Context); strategies fall back to a transient Pool when the Context
// carries none, which still reuses the engine's persistent worker chains.
type Pool struct {
	engine  *em.Engine
	workers []Worker
	// roundBase feeds roundSeed, the pool-cached per-round seed closure
	// of the cache-less Score path: rebuilding the closure per round
	// would put one heap allocation back on a scoring path that is
	// advertised — and benchmark-gated — as allocation-free.
	roundBase uint64
	roundSeed func(c int) int64
}

// Worker is one scoring lane of a Pool: a persistent worker chain plus
// reusable marginal buffers for the two what-if branches of a candidate
// and the claim-indexed credibility scratch of source-driven scoring.
type Worker struct {
	// Chain is the lane's private Gibbs chain, resynchronised with the
	// engine at the start of each scoring round.
	Chain *gibbs.Chain

	plus, minus []float64
	cred        []bool
}

// Hypo runs the engine's component-restricted what-if inference for
// (c, v) on the worker's chain, reusing the branch's marginal buffer.
// The result is valid until the worker's next Hypo call for the same v.
func (w *Worker) Hypo(e *em.Engine, c int, v bool) gibbs.ComponentResult {
	buf := &w.minus
	if v {
		buf = &w.plus
	}
	res := e.HypotheticalInto(*buf, w.Chain, c, v)
	*buf = res.Marginals
	return res
}

// NewPool creates a scoring pool over the engine's persistent worker
// chains.
func NewPool(engine *em.Engine) *Pool { return &Pool{engine: engine} }

// Trim drops the pool's cached per-worker scoring buffers. A serving
// layer that parks idle sessions calls it (together with
// em.Engine.ReleaseWorkers) so memory is held only by sessions actually
// scoring; the buffers regrow on demand and their presence or absence
// never affects scores — Score reseeds and resynchronises every worker
// lane per round.
func (p *Pool) Trim() {
	clear(p.workers)
	p.workers = p.workers[:0]
}

// pool returns the Context's scoring pool, creating and caching a
// transient one on first use.
func (ctx *Context) pool() *Pool {
	if ctx.Pool == nil {
		ctx.Pool = NewPool(ctx.Engine)
	}
	return ctx.Pool
}

// Score evaluates fn for every candidate with the pool's workers and
// returns the gains aligned with cand. One RNG draw from ctx.RNG seeds
// the round regardless of worker count, keeping the session's random
// stream — and hence the selection trace — identical across parallelism
// settings. This is the scoring path of sessions without a gain cache:
// per-answer EM (FullSweepEvery = 1, every paper figure) and batch
// assembly.
func (p *Pool) Score(ctx *Context, cand []int, fn func(w *Worker, c int) float64) []float64 {
	p.roundBase = ctx.RNG.Uint64()
	if p.roundSeed == nil {
		p.roundSeed = func(c int) int64 {
			return stats.StreamSeed(p.roundBase, uint64(c))
		}
	}
	return p.ScoreSeeded(ctx, cand, p.roundSeed, fn)
}

// ScoreSeeded is Score with caller-controlled per-candidate seeds and no
// RNG draw of its own. The gain-cache scoring path uses it with seeds
// derived from per-component epochs instead of a per-round draw, which
// is what makes a candidate's gain reproducible across rounds while its
// component is clean — the exactness the cross-answer cache depends on.
// Determinism across worker counts is unchanged: a candidate's chain is
// reseeded from seedOf(c) wherever it runs, and every what-if excursion
// is rolled back.
func (p *Pool) ScoreSeeded(ctx *Context, cand []int, seedOf func(c int) int64, fn func(w *Worker, c int) float64) []float64 {
	if len(cand) == 0 {
		return nil
	}
	gains := make([]float64, len(cand))
	extra := gibbs.Borrow(ctx.Lanes, ctx.Workers, len(cand))
	defer gibbs.Return(ctx.Lanes, extra)
	chains := p.engine.AcquireWorkers(1 + extra)
	for len(p.workers) < len(chains) {
		p.workers = append(p.workers, Worker{})
	}
	ws := p.workers[:len(chains)]
	for i := range ws {
		ws[i].Chain = chains[i]
	}
	gibbs.Fan(len(cand), extra, func(w, i int) {
		c := cand[i]
		ws[w].Chain.Reseed(seedOf(c))
		gains[i] = fn(&ws[w], c)
	})
	return gains
}
