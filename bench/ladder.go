package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/guidance"
	"factcheck/internal/persist"
	"factcheck/internal/service"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// rung is one layer of the ladder: a target over that layer and what
// tears it down.
type rung struct {
	name  string
	t     target
	close func()
}

// ladderRungs builds the rungs bottom-up. Each adds exactly one layer
// over the one below: the session manager (lane, mailbox, idempotency,
// an in-memory store), the file WAL, the HTTP server and client, the
// router hop.
func ladderRungs(w spec, opt options) ([]rung, error) {
	rungs := []rung{{name: "core", t: &coreTarget{}, close: func() {}}}
	mem := service.NewManager(service.Config{Workers: 2, Store: persist.NewMemStore()})
	rungs = append(rungs, rung{"manager-mem", managerTarget{mem}, mem.Shutdown})
	if err := os.MkdirAll(opt.dataRoot, 0o755); err != nil {
		return rungs, err
	}
	dir, err := os.MkdirTemp(opt.dataRoot, w.short+"-ladder-")
	if err != nil {
		return rungs, err
	}
	fs, err := persist.NewFileStore(dir)
	if err != nil {
		return rungs, err
	}
	file := service.NewManager(service.Config{Workers: 2, Store: fs})
	rungs = append(rungs, rung{"manager-file", managerTarget{file}, func() {
		file.Shutdown()
		_ = os.RemoveAll(dir)
	}})
	direct := w
	direct.fleet = false
	type served struct {
		name string
		w    spec
	}
	layers := []served{{"http", direct}}
	if w.fleet {
		layers = append(layers, served{"router", w})
	}
	for _, layer := range layers {
		st, err := newStack(layer.w, opt.dataRoot, nil)
		if err != nil {
			return rungs, err
		}
		rungs = append(rungs, rung{layer.name, st.clients[0], st.close})
	}
	return rungs, nil
}

// runLadder replays the first w.ladder answers of session #0 at every
// rung and prices each layer as the median of the per-answer paired
// differences between its rung and the one below — the session is
// bit-identical at every rung (checked), so answer k does the same
// inference work everywhere and the difference is the layer's own cost.
func runLadder(w spec, wi int, opt options) ([]Metric, error) {
	rungs, err := ladderRungs(w, opt)
	defer func() {
		for _, r := range rungs {
			r.close()
		}
	}()
	if err != nil {
		return nil, err
	}
	sessions := make([]*session, len(rungs))
	perAnswer := make([]samples, len(rungs))
	for i, r := range rungs {
		sessions[i] = newSession(w, opt.seed, wi, 0)
		if err := sessions[i].start(r.t, &perAnswer[i]); err != nil {
			return nil, fmt.Errorf("ladder rung %s: %w", r.name, err)
		}
	}
	// Answer k is submitted at every rung before answer k+1 at any: the
	// two sides of a paired difference then run back to back, in the
	// same heap and cache state, instead of a whole replay apart.
	runtime.GC()
	for k := 0; k < w.ladder; k++ {
		for i, r := range rungs {
			if err := sessions[i].answers(r.t, &perAnswer[i], 1); err != nil {
				return nil, fmt.Errorf("ladder rung %s: %w", r.name, err)
			}
		}
	}
	claims := sessions[0].claims
	for i, r := range rungs {
		if !reflect.DeepEqual(claims, sessions[i].claims) {
			return nil, fmt.Errorf("ladder rung %s answered claims %v, rung core %v: the session is not bit-identical across rungs", r.name, sessions[i].claims, claims)
		}
	}
	n := len(claims)
	out := []Metric{{Name: "core.step_ms", Unit: "ms", Value: median(perAnswer[0].answer), N: n}}
	overhead := []string{"", "service.manager_overhead_ms", "service.wal_overhead_ms", "service.http_overhead_ms", "router.hop_ms"}
	for i := 1; i < len(rungs); i++ {
		diff := make([]float64, n)
		for k := range diff {
			diff[k] = perAnswer[i].answer[k] - perAnswer[i-1].answer[k]
		}
		out = append(out, Metric{Name: overhead[i], Unit: "ms", Value: median(diff), N: n})
	}
	return out, nil
}

// timeKernel runs fn reps times and returns the median duration in
// seconds and the mean heap allocations per call.
func timeKernel(reps int, fn func(k int)) (seconds, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	times := make([]float64, reps)
	for k := range times {
		start := time.Now()
		fn(k)
		times[k] = time.Since(start).Seconds()
	}
	runtime.ReadMemStats(&after)
	return median(times), float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// runKernels times the public kernels under the answer path on session
// #0's corpus, at the state after kernelAt answers: corpus build and
// session open, transcript replay, one Gibbs sweep, one what-if
// inference, the component refresh and the full EM sweep, a cold and a
// dirty-component ranking round, and one delta ingest.
func runKernels(w spec, wi int, opt options) ([]Metric, error) {
	req := w.request(opt.seed, wi, 0)
	opts, err := service.BuildOptions(req)
	if err != nil {
		return nil, err
	}
	var out []Metric
	add := func(name, unit string, scale, seconds float64, n int) {
		out = append(out, Metric{Name: name, Unit: unit, Value: seconds * scale, N: n})
	}
	const ms, us = 1e3, 1e6

	// Every open and restore below gets a corpus of its own: ingest
	// extends the database in place.
	const corpora = 7
	built := make([]*synth.Corpus, corpora)
	secs, _ := timeKernel(corpora, func(k int) {
		if c, e := service.BuildCorpus(req); e != nil {
			err = e
		} else {
			built[k] = c
		}
	})
	if err != nil {
		return nil, err
	}
	add("synth.build_corpus_ms", "ms", ms, secs, corpora)

	lib := make([]*coreTarget, 3)
	secs, _ = timeKernel(len(lib), func(k int) {
		lib[k] = &coreTarget{}
		if e := lib[k].openOn(built[k], opts); e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, err
	}
	add("core.open_ms", "ms", ms, secs, len(lib))

	t := lib[0]
	s := newSession(w, opt.seed, wi, 0)
	var m samples
	next, _, err := t.next(s.id)
	if err != nil {
		return nil, err
	}
	s.follow(next)
	if err := s.answers(t, &m, kernelAt); err != nil {
		return nil, err
	}
	snap := t.s.Snapshot()
	secs, _ = timeKernel(3, func(k int) {
		if _, e := core.RestoreSession(built[3+k].DB, opts, snap); e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, err
	}
	add("core.restore_ms", "ms", ms, secs, 3)

	cs := t.s
	engine, state, db := cs.Engine, cs.State, cs.DB
	var open []int // unlabelled claims
	for c := 0; c < db.NumClaims; c++ {
		if !state.Labeled(c) {
			open = append(open, c)
		}
	}
	if len(open) == 0 {
		return nil, fmt.Errorf("kernel rungs: no unlabelled claim left after %d answers", kernelAt)
	}
	pick := func(k int) int { return open[k%len(open)] }

	secs, allocs := timeKernel(64, func(int) { engine.Chain().Sweep(nil) })
	add("gibbs.sweep_us", "us", us, secs, 64)
	add("gibbs.sweep_allocs", "count", 1, allocs, 64)

	secs, _ = timeKernel(64, func(k int) { engine.Hypothetical(engine.Chain(), pick(k), k%2 == 0) })
	add("em.hypothetical_us", "us", us, secs, 64)

	secs, allocs = timeKernel(16, func(k int) { engine.InferComponent(state, db.ComponentOf(pick(k)), int64(k+1)) })
	add("em.infer_component_ms", "ms", ms, secs, 16)
	add("em.infer_component_allocs", "count", 1, allocs, 16)

	secs, _ = timeKernel(5, func(int) { engine.InferIncremental(state) })
	add("em.infer_full_ms", "ms", ms, secs, 5)

	// The ranking rounds use the session's strategy, except that the
	// hybrid roulette is pinned to its information-gain arm so every
	// round scores the same gain family.
	strategy := opts.Strategy
	if _, ok := strategy.(*guidance.Hybrid); ok {
		strategy = guidance.InfoGain{}
	}
	gains := guidance.NewGainCache(req.Seed)
	ctx := &guidance.Context{
		DB: db, State: state, Engine: engine, Grounding: engine.Grounding(state),
		RNG: stats.NewRNG(req.Seed), CandidatePool: opts.CandidatePool, Workers: 2,
		Pool: guidance.NewPool(engine), Gains: gains,
	}
	secs, _ = timeKernel(5, func(int) {
		gains.InvalidateAll()
		strategy.Rank(ctx, db.NumClaims)
	})
	add("guidance.rank_cold_ms", "ms", ms, secs, 5)
	secs, allocs = timeKernel(9, func(k int) {
		gains.InvalidateComponent(db.ComponentOf(pick(k)))
		strategy.Rank(ctx, db.NumClaims)
	})
	add("guidance.rank_incremental_ms", "ms", ms, secs, 9)
	add("guidance.rank_allocs", "count", 1, allocs, 9)

	s.shape, err = synth.ByName(req.Profile)
	if err != nil {
		return nil, err
	}
	s.shape.Claims, s.shape.Sources, s.shape.Documents = db.NumClaims, len(db.Sources), len(db.Documents)
	secs, _ = timeKernel(3, func(int) {
		if e := s.ingest(t, &m); e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, err
	}
	// The sample is Ingest plus the ranking after it, as served.
	out = append(out, Metric{Name: "core.ingest_ms", Unit: "ms", Value: median(m.ingest), N: len(m.ingest)})
	return out, nil
}
