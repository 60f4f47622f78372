package guidance

import (
	"slices"
	"sync"

	"factcheck/internal/em"
	"factcheck/internal/gibbs"
	"factcheck/internal/stats"
)

// Pool is the parallel scoring engine behind the what-if strategies
// (§5.1). It holds no chain of its own: each scoring round borrows its
// lanes' Workers from a process-wide free list, every borrowed chain
// adopts the engine's chain for the round (gibbs.Chain.Adopt: the run
// table shared, the state copied into the worker's own buffers) and
// drops it again when the round returns the worker (Detach). A parked
// session therefore pays for no scoring lane, and the process holds as
// many worker chains as rounds have ever run at once — one shared
// structure with many cheap readers, sized by the work in flight
// rather than by the sessions alive. In steady state a round performs
// no O(|C|) allocation: the workers' buffers only grow, to the largest
// session they have served.
//
// Scoring is deterministic by construction: every candidate's what-if
// chain RNG is reseeded from (round base, claim id), and each what-if
// excursion is rolled back before the worker moves on, so a candidate's
// gain is a pure function of the adopted chain state — independent of
// the worker count, of task scheduling and of which session a worker
// served before. Rankings are therefore byte-identical for a fixed seed
// whether one worker scores everything or GOMAXPROCS workers share the
// queue.
//
// A Pool is attached to a session (core.Session wires one into every
// Context); strategies fall back to a transient Pool when the Context
// carries none.
type Pool struct {
	engine *em.Engine
	// roundBase feeds roundSeed, the pool-cached per-round seed closure
	// of the cache-less Score path: rebuilding the closure per round
	// would put one heap allocation back on a scoring path that is
	// advertised — and benchmark-gated — as allocation-free.
	roundBase uint64
	roundSeed func(c int) int64
}

// Worker is one scoring lane: a chain that adopts the session's chain
// for the round it is borrowed for, plus reusable marginal buffers for
// the two what-if branches of a candidate and the claim-indexed
// credibility scratch of source-driven scoring. Between rounds a Worker
// sits on the free list, detached, and the next round to borrow it may
// belong to any session.
type Worker struct {
	// Chain is the lane's Gibbs chain, adopted from the engine's at the
	// start of each round.
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

// idle is the free list of Workers between rounds. It is the
// process's, not a session's or a Pool's, because lanes are a process
// resource: sessions take turns on the machine's cores, and the scratch
// follows the rounds that run, not the sessions that exist. Every chain
// on it is detached: it reaches no session's database or run table.
var idle struct {
	sync.Mutex
	ws []*Worker
}

// borrowWorkers takes n workers off the free list, making the ones it
// lacks, and has each chain adopt src.
func borrowWorkers(n int, src *gibbs.Chain) []*Worker {
	ws := make([]*Worker, n)
	idle.Lock()
	k := len(idle.ws) - min(n, len(idle.ws))
	reused := copy(ws, idle.ws[k:])
	clear(idle.ws[k:])
	idle.ws = idle.ws[:k]
	idle.Unlock()
	for i, w := range ws {
		if i >= reused {
			w = &Worker{Chain: new(gibbs.Chain)}
			ws[i] = w
		}
		w.Chain.Adopt(src)
	}
	return ws
}

// returnWorkers detaches the workers' chains and puts them back on the
// free list.
func returnWorkers(ws []*Worker) {
	for _, w := range ws {
		w.Chain.Detach()
	}
	idle.Lock()
	idle.ws = append(idle.ws, ws...)
	idle.Unlock()
}

// IdleWorkers returns the workers on the free list, which no round is
// using: the what-if scratch the process holds beyond its sessions.
func IdleWorkers() []*Worker {
	idle.Lock()
	defer idle.Unlock()
	return slices.Clone(idle.ws)
}

// NewPool creates a scoring pool over the engine's chain.
func NewPool(engine *em.Engine) *Pool { return &Pool{engine: engine} }

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
	ws := borrowWorkers(1+extra, p.engine.Chain())
	defer returnWorkers(ws)
	gibbs.Fan(len(cand), extra, func(w, i int) {
		c := cand[i]
		ws[w].Chain.Reseed(seedOf(c))
		gains[i] = fn(ws[w], c)
	})
	return gains
}
