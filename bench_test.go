// Micro-benchmarks of the performance-critical substrates: the Gibbs
// sweep, the M-step, incremental inference, the what-if scoring round,
// per-answer re-ranking and streaming ingestion. The Makefile's
// BENCH_HOT set, gated against bench_baseline.json, is drawn from
// here. The paper's tables are cmd/factcheck-bench's, and the ones that
// are a function of the seed are pinned by
// internal/experiments/testdata/tables.txt.
package factcheck_test

import (
	"fmt"
	"runtime"
	"testing"

	"factcheck/internal/core"
	"factcheck/internal/crf"
	"factcheck/internal/em"
	"factcheck/internal/factdb"
	"factcheck/internal/gibbs"
	"factcheck/internal/guidance"
	"factcheck/internal/service"
	"factcheck/internal/sim"
	"factcheck/internal/stats"
	"factcheck/internal/stream"
	"factcheck/internal/synth"
)

func microCorpus(b *testing.B) *synth.Corpus {
	b.Helper()
	return synth.Generate(synth.Snopes.Scaled(0.02), 7)
}

// servedSession answers a fixed-seed wiki session by oracle for 32
// labels, the state bench/ladder.go's kernel rungs time at: the anchor
// has ramped, θ_T ≠ 0, so the sampler runs the trust-coupled branch every
// served answer takes (a fresh crf.New model or an unlabelled InferFull
// leaves θ_T = 0 and would time the branch nothing serves).
func servedSession(b *testing.B) *core.Session {
	b.Helper()
	corpus := synth.Generate(synth.Wikipedia, 7)
	s, err := core.OpenSession(corpus.DB, core.Options{Seed: 11, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	oracle := &sim.Oracle{Truth: corpus.Truth}
	for i := 0; i < 32; i++ {
		s.Step(oracle)
	}
	if s.Engine.Model().TrustWeight() == 0 {
		b.Fatal("served state has no trust coupling")
	}
	return s
}

func BenchmarkGibbsSweep(b *testing.B) {
	ch := servedSession(b).Engine.Chain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Sweep(nil)
	}
}

func BenchmarkGibbsRunFull(b *testing.B) {
	corpus := microCorpus(b)
	m := crf.New(corpus.DB)
	ch := gibbs.NewChain(corpus.DB, stats.NewRNG(1))
	ch.SetModel(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ch.RunSharded(5, 10, 1, nil) // the E-step as em.Engine runs it
	}
}

// BenchmarkTRONMStep times the M-step (§3.2, Eq. 8), em.MStep, and
// reports ns per row-pass: one Value, Gradient or HessianVec pass over
// one example. state=cold solves it from θ = 0 over a Snopes@0.02
// corpus with half the claims labelled, which no served answer does.
// state=served runs it as em.Engine.infer does in a full sweep of a
// guided-incremental-shaped session (bench/workloads.go, seed 5) after
// 160 oracle answers, each Next followed by BaseScores, the part of
// gibbs.Chain.SetModel that reads θ.
func BenchmarkTRONMStep(b *testing.B) {
	b.Run("state=cold", func(b *testing.B) {
		corpus := microCorpus(b)
		m := crf.New(corpus.DB)
		state := factdb.NewState(corpus.DB.NumClaims)
		for c := 0; c < corpus.DB.NumClaims/2; c++ {
			state.SetLabel(c, corpus.Truth[c])
		}
		var rowPasses int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step := em.NewMStep(m, state)
			res := em.Solve(step.Problem(), make([]float64, m.Dim()))
			rowPasses += int64(step.Problem().Len()) * int64(res.Passes.Total())
			step.Problem().Release()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rowPasses), "ns/row-pass")
	})
	b.Run("state=served", func(b *testing.B) {
		req := service.OpenRequest{Profile: "wiki", Scale: 2, Communities: 12, FullSweepEvery: 16, Seed: 5}
		s, corpus, err := service.BuildSession(req, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		oracle := &sim.Oracle{Truth: corpus.Truth}
		for i := 0; i < 160; i++ {
			s.Step(oracle)
		}
		theta0 := s.Engine.Theta()
		m := crf.New(corpus.DB)
		var rowPasses int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.SetTheta(theta0)
			step := em.NewMStep(m, s.State)
			for it := 0; it < s.Engine.Config().EMIters; it++ {
				res := step.Next(m.Theta)
				rowPasses += int64(step.Problem().Len()) * int64(res.Passes.Total())
				m.SetTheta(res.W)
				_ = m.BaseScores()
			}
			step.Problem().Release()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rowPasses), "ns/row-pass")
		b.ReportMetric(float64(rowPasses)/float64(b.N), "row-passes/op")
	})
}

func BenchmarkIncrementalInference(b *testing.B) {
	corpus := microCorpus(b)
	state := factdb.NewState(corpus.DB.NumClaims)
	engine := em.NewEngine(corpus.DB, em.DefaultConfig(), 3)
	engine.InferFull(state)
	rng := stats.NewRNG(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := rng.Intn(corpus.DB.NumClaims)
		state.SetLabel(c, corpus.Truth[c])
		engine.InferIncremental(state)
	}
}

// BenchmarkGuidanceScoring measures one full what-if ranking round on the
// Wikipedia profile — the §5.1 hot path — across worker counts, plus the
// source-driven arm the hybrid roulette takes. Worker chains, marginal
// buffers and the source-entropy scratch live on the scoring free list
// between rounds, so allocs/op stay flat on every arm (no per-Rank chain
// clones, no per-hypothetical map) and the parallel arm scales with
// cores; selections are byte-identical across worker counts for a fixed
// seed (reported as the top-claim metric).
func BenchmarkGuidanceScoring(b *testing.B) {
	s := servedSession(b)
	state, engine := s.State, s.Engine
	grounding := engine.Grounding(state)
	arms := []struct {
		name     string
		strategy guidance.Strategy
		workers  int
		pool     int
	}{
		{"workers=1", guidance.InfoGain{}, 1, 32},
		{fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), guidance.InfoGain{}, runtime.GOMAXPROCS(0), 32},
		{"strategy=source", guidance.SourceGain{}, 1, 32},
		// Every unlabelled claim, as guided-connected serves: the 32 most
		// uncertain include none with P ∈ {0, 1}, the candidates whose
		// zero-weight what-if branch is not run.
		{"pool=all", guidance.InfoGain{}, 1, 0},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			ctx := &guidance.Context{
				DB: s.DB, State: state, Engine: engine,
				Grounding: grounding, RNG: stats.NewRNG(11),
				CandidatePool: arm.pool, Workers: arm.workers,
				Pool: guidance.NewPool(engine),
			}
			top := -1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.RNG = stats.NewRNG(11) // same scoring streams every round
				top = arm.strategy.Rank(ctx, 1)[0]
			}
			b.ReportMetric(float64(top), "top-claim")
		})
	}
}

// BenchmarkIncrementalRank prices the per-answer cost of the guidance
// loop — post-answer inference plus the re-ranking round — on a
// multi-component wiki-profile corpus (12 communities), comparing the
// cross-answer gain cache (mode=incremental: only the answered claim's
// component is re-swept and re-scored, clean components merge cached
// gains) against a from-scratch re-score of every candidate each round
// (mode=full, via SetFullRecompute). Selections are bit-identical
// between the modes — the cache is exact — so the delta is pure cost.
// Sessions run the serving cadence (one full EM sweep every 16 answers)
// and are reopened outside the timer as the corpus runs out.
func BenchmarkIncrementalRank(b *testing.B) {
	corpus := synth.GenerateCommunities(synth.Wikipedia.Scaled(2), 12, 7)
	if corpus.DB.NumComponents() < 12 {
		b.Fatalf("corpus has %d components", corpus.DB.NumComponents())
	}
	for _, mode := range []string{"incremental", "full"} {
		b.Run("mode="+mode, func(b *testing.B) {
			oracle := &sim.Oracle{Truth: corpus.Truth}
			var s *core.Session
			open := func() {
				var err error
				s, err = core.OpenSession(corpus.DB, core.Options{
					Seed: 11, Workers: 1, FullSweepEvery: 16,
				})
				if err != nil {
					b.Fatal(err)
				}
				if mode == "full" {
					s.GainCache().SetFullRecompute(true)
				}
				// Warm past the full-sweep warm-up into steady state.
				for i := 0; i < 17; i++ {
					s.Step(oracle)
					if _, err := s.Pending(1); err != nil {
						b.Fatal(err)
					}
				}
			}
			open()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.State.NumLabeled() > corpus.DB.NumClaims*3/4 {
					b.StopTimer()
					open()
					b.StartTimer()
				}
				s.Step(oracle)
				if _, err := s.Pending(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIngestDelta prices absorbing a streaming corpus delta into a
// warm session (mode=ingest: factdb.DB.Extend + engine Grow + the
// frozen-θ dirty-component refresh) against the pre-streaming
// alternative of recovering the same state without a live ingestion
// path (mode=reopen: core.RestoreSession replaying the session's warm
// answers plus every delta so far against a pristine base corpus — what
// snapshot/close/reopen actually costs). The ingest path must stay
// several times cheaper; the CI bench gate pins both arms.
func BenchmarkIngestDelta(b *testing.B) {
	const (
		parts = 12
		frac  = 0.02
		seed  = 7
	)
	base := synth.Wikipedia
	opts := core.Options{Seed: 11, Workers: 1, FullSweepEvery: 32}
	gen := func() *synth.Corpus { return synth.GenerateCommunities(base, parts, seed) }
	// shape tracks the live corpus totals so each delta's existing-row
	// references stay valid as the database grows.
	shape := func(db *factdb.DB) synth.Profile {
		p := base
		p.Claims, p.Sources, p.Documents = db.NumClaims, len(db.Sources), len(db.Documents)
		return p
	}
	// Warm past the full-sweep warm-up so mode=ingest measures the
	// steady-state dirty-component refresh, not the cold path that falls
	// back to a full sweep anyway.
	warm := func(b *testing.B, s *core.Session, truth []bool) {
		b.Helper()
		oracle := &sim.Oracle{Truth: truth}
		for i := 0; i < opts.FullSweepEvery+1; i++ {
			s.Step(oracle)
			if _, err := s.Pending(1); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("mode=ingest", func(b *testing.B) {
		var (
			s    *core.Session
			prof synth.Profile
			cap  int
		)
		reset := func() {
			corpus := gen()
			prof = shape(corpus.DB)
			cap = corpus.DB.NumClaims * 5 / 4
			var err error
			s, err = core.OpenSession(corpus.DB, opts)
			if err != nil {
				b.Fatal(err)
			}
			warm(b, s, corpus.Truth)
		}
		reset()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if prof.Claims > cap {
				b.StopTimer()
				reset()
				b.StartTimer()
			}
			d := synth.GenerateDelta(prof, frac, stats.StreamSeed(99, uint64(i)))
			if _, err := s.Ingest(d); err != nil {
				b.Fatal(err)
			}
			prof.Claims += d.NewClaims
			prof.Sources += len(d.Sources)
			prof.Documents += len(d.Documents)
		}
	})

	b.Run("mode=reopen", func(b *testing.B) {
		var (
			snap core.Snapshot // warm answers, then one ingest record per delta
			prof synth.Profile
			cap  int
		)
		reset := func() {
			corpus := gen()
			prof = shape(corpus.DB)
			cap = corpus.DB.NumClaims * 5 / 4
			s, err := core.OpenSession(corpus.DB, opts)
			if err != nil {
				b.Fatal(err)
			}
			warm(b, s, corpus.Truth)
			snap = s.Snapshot()
		}
		reset()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if prof.Claims > cap {
				reset()
			}
			db := gen().DB // a pristine base corpus for the replay to extend
			b.StartTimer()
			d := synth.GenerateDelta(prof, frac, stats.StreamSeed(99, uint64(i)))
			stored := d
			snap.Elicitations = append(snap.Elicitations, core.Elicitation{Ingest: &stored})
			if _, err := core.RestoreSession(db, opts, snap); err != nil {
				b.Fatal(err)
			}
			prof.Claims += d.NewClaims
			prof.Sources += len(d.Sources)
			prof.Documents += len(d.Documents)
		}
	})
}

func BenchmarkInformationGainSelection(b *testing.B) {
	corpus := microCorpus(b)
	state := factdb.NewState(corpus.DB.NumClaims)
	engine := em.NewEngine(corpus.DB, em.DefaultConfig(), 3)
	engine.InferFull(state)
	ctx := &guidance.Context{
		DB: corpus.DB, State: state, Engine: engine,
		Grounding: engine.Grounding(state), RNG: stats.NewRNG(7),
		CandidatePool: 8, Workers: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = guidance.InfoGain{}.Rank(ctx, 1)
	}
}

func BenchmarkGreedyBatchSelection(b *testing.B) {
	rng := stats.NewRNG(9)
	n := 64
	claims := make([]int, n)
	ig := make([]float64, n)
	corr := guidance.NewCorrelation(microCorpus(b).DB, claims)
	for i := range ig {
		ig[i] = rng.Float64()
	}
	q := corr.Importance(ig)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = guidance.GreedyBatch(corr, ig, q, 4, 10)
	}
}

func BenchmarkStreamObserveClaim(b *testing.B) {
	corpus := microCorpus(b)
	m := crf.New(corpus.DB)
	eng := stream.New(m.Dim())
	rows, signs := stream.RowsForClaim(m, 0, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ObserveClaim(rows, signs, nil)
	}
}
