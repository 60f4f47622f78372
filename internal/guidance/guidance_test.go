package guidance

import (
	"math"
	"testing"

	"factcheck/internal/em"
	"factcheck/internal/factdb"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// newCtx builds a small inferred corpus context for strategy tests.
func newCtx(t *testing.T, seed int64) (*Context, *synth.Corpus) {
	t.Helper()
	corpus := synth.Generate(synth.Wikipedia.Scaled(0.25), seed)
	state := factdb.NewState(corpus.DB.NumClaims)
	engine := em.NewEngine(corpus.DB, em.DefaultConfig(), seed+1)
	engine.InferFull(state)
	ctx := &Context{
		DB:            corpus.DB,
		State:         state,
		Engine:        engine,
		Grounding:     engine.Grounding(state),
		RNG:           stats.NewRNG(seed + 2),
		CandidatePool: 12,
		Workers:       2,
	}
	return ctx, corpus
}

func TestRandomRanksUnlabeled(t *testing.T) {
	ctx, _ := newCtx(t, 1)
	r := Random{}
	got := r.Rank(ctx, 5)
	if len(got) != 5 {
		t.Fatalf("Rank returned %d claims", len(got))
	}
	seen := map[int]bool{}
	for _, c := range got {
		if ctx.State.Labeled(c) {
			t.Fatalf("random picked labelled claim %d", c)
		}
		if seen[c] {
			t.Fatalf("duplicate claim %d", c)
		}
		seen[c] = true
	}
	if r.Name() != "random" {
		t.Fatal("name")
	}
}

func TestRandomExhaustsClaims(t *testing.T) {
	ctx, _ := newCtx(t, 2)
	n := ctx.DB.NumClaims
	got := (Random{}).Rank(ctx, n+10)
	if len(got) != n {
		t.Fatalf("Rank(%d) over %d claims returned %d", n+10, n, len(got))
	}
}

func TestUncertaintyPrefersHalf(t *testing.T) {
	ctx, _ := newCtx(t, 3)
	// Force one claim to be maximally uncertain and others confident.
	for c := 0; c < ctx.DB.NumClaims; c++ {
		ctx.State.SetP(c, 0.99)
	}
	ctx.State.SetP(7, 0.5)
	ctx.State.SetP(9, 0.8)
	got := (Uncertainty{}).Rank(ctx, 2)
	if got[0] != 7 {
		t.Fatalf("top uncertain claim = %d, want 7", got[0])
	}
	if got[1] != 9 {
		t.Fatalf("second = %d, want 9", got[1])
	}
}

func TestUncertaintySkipsLabeled(t *testing.T) {
	ctx, _ := newCtx(t, 4)
	for c := 0; c < ctx.DB.NumClaims; c++ {
		ctx.State.SetP(c, 0.9)
	}
	ctx.State.SetLabel(3, true)
	got := (Uncertainty{}).Rank(ctx, ctx.DB.NumClaims)
	for _, c := range got {
		if c == 3 {
			t.Fatal("labelled claim ranked")
		}
	}
}

func TestSelectReturnsMinusOneWhenExhausted(t *testing.T) {
	ctx, corpus := newCtx(t, 5)
	for c := 0; c < corpus.DB.NumClaims; c++ {
		ctx.State.SetLabel(c, corpus.Truth[c])
	}
	for _, s := range []Strategy{Random{}, Uncertainty{}, InfoGain{}, SourceGain{}} {
		if got := s.Rank(ctx, 1); len(got) != 0 {
			t.Fatalf("%s ranked %v on an exhausted state, want nothing", s.Name(), got)
		}
	}
}

func TestInformationGainsFiniteAndMostlyPositive(t *testing.T) {
	ctx, _ := newCtx(t, 6)
	cand := candidates(ctx)
	gains := InformationGains(ctx, cand)
	if len(gains) != len(cand) {
		t.Fatal("gain length mismatch")
	}
	positive := 0
	for i, g := range gains {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("gain[%d] = %v", i, g)
		}
		if g > 0 {
			positive++
		}
	}
	if positive == 0 {
		t.Fatal("no candidate had positive information gain")
	}
}

func TestInfoGainPrefersConnectedClaim(t *testing.T) {
	// A claim linked to many others through one source should carry more
	// information gain than an isolated claim.
	db := &factdb.DB{NumClaims: 6}
	db.AddSource(nil)
	db.AddSource(nil)
	for c := 0; c < 5; c++ { // claims 0..4 share source 0
		db.AddDocument(0, nil, factdb.ClaimRef{Claim: c, Stance: factdb.Support})
	}
	db.AddDocument(1, nil, factdb.ClaimRef{Claim: 5, Stance: factdb.Support})
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	state := factdb.NewState(6)
	engine := em.NewEngine(db, em.DefaultConfig(), 9)
	engine.InferFull(state)
	// Install a strong trust coupling so validation propagates.
	th := engine.Theta()
	th[len(th)-1] = 2
	engine.SetTheta(th)
	ctx := &Context{
		DB: db, State: state, Engine: engine,
		Grounding: engine.Grounding(state),
		RNG:       stats.NewRNG(10), Workers: 1,
	}
	gains := InformationGains(ctx, []int{0, 5})
	if gains[0] <= gains[1] {
		t.Fatalf("connected claim gain %v should beat isolated %v", gains[0], gains[1])
	}
}

func TestSourceGainsFinite(t *testing.T) {
	ctx, _ := newCtx(t, 11)
	cand := candidates(ctx)[:6]
	gains := SourceGains(ctx, cand)
	for i, g := range gains {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("source gain[%d] = %v", i, g)
		}
	}
}

func TestStrategiesReturnUnlabeledOnly(t *testing.T) {
	ctx, corpus := newCtx(t, 12)
	for i := 0; i < 10; i++ {
		c := corpus.ClaimOrder[i]
		ctx.State.SetLabel(c, corpus.Truth[c])
	}
	for _, s := range []Strategy{Random{}, Uncertainty{}, InfoGain{}, SourceGain{}, &Hybrid{Z: 0.5}} {
		got := s.Rank(ctx, 5)
		for _, c := range got {
			if ctx.State.Labeled(c) {
				t.Fatalf("%s ranked labelled claim %d", s.Name(), c)
			}
		}
	}
}

func TestHybridRoulette(t *testing.T) {
	ctx, _ := newCtx(t, 13)
	// With a single-candidate pool, both sub-strategies must return the
	// most uncertain claim, making the hybrid deterministic despite the
	// stochastic what-if scoring.
	ctx.CandidatePool = 1
	want := (Uncertainty{}).Rank(ctx, 1)[0]
	for _, z := range []float64{0, 1, 0.5} {
		h := &Hybrid{Z: z}
		got := h.Rank(ctx, 1)
		if len(got) != 1 || got[0] != want {
			t.Fatalf("hybrid(Z=%v) = %v, want [%d]", z, got, want)
		}
	}
	if (&Hybrid{}).Name() != "hybrid" {
		t.Fatal("name")
	}
}

func TestHybridScoreProperties(t *testing.T) {
	if z := HybridScore(0, 0, 0); z != 0 {
		t.Fatalf("z(0,0,0) = %v", z)
	}
	// Monotone in both error rate and unreliable ratio.
	if HybridScore(0.9, 0, 0.2) <= HybridScore(0.1, 0, 0.2) {
		t.Fatal("z not monotone in error rate")
	}
	if HybridScore(0.1, 0.9, 0.8) <= HybridScore(0.1, 0.1, 0.8) {
		t.Fatal("z not monotone in unreliable ratio")
	}
	// Early on (h≈0) the error rate dominates; late (h≈1) the ratio does.
	early := HybridScore(0.8, 0.1, 0.01)
	earlySwap := HybridScore(0.1, 0.8, 0.01)
	if early <= earlySwap {
		t.Fatal("error rate should dominate early")
	}
	late := HybridScore(0.1, 0.8, 0.99)
	lateSwap := HybridScore(0.8, 0.1, 0.99)
	if late <= lateSwap {
		t.Fatal("unreliable ratio should dominate late")
	}
	for _, z := range []float64{HybridScore(1, 1, 0.5), HybridScore(0.5, 0.5, 0.5)} {
		if z < 0 || z > 1 {
			t.Fatalf("z out of [0,1]: %v", z)
		}
	}
}

func TestUnreliableRatio(t *testing.T) {
	db := &factdb.DB{NumClaims: 2}
	db.AddSource(nil)
	db.AddSource(nil)
	db.AddDocument(0, nil, factdb.ClaimRef{Claim: 0, Stance: factdb.Support})
	db.AddDocument(1, nil, factdb.ClaimRef{Claim: 1, Stance: factdb.Support})
	if err := db.Finalize(); err != nil {
		t.Fatal(err)
	}
	// Source 0's claim credible, source 1's not: half the sources are
	// unreliable.
	if got := UnreliableRatio(db, factdb.Grounding{true, false}); got != 0.5 {
		t.Fatalf("UnreliableRatio = %v", got)
	}
	if got := UnreliableRatio(db, factdb.Grounding{true, true}); got != 0 {
		t.Fatalf("UnreliableRatio = %v", got)
	}
}

func TestErrorRate(t *testing.T) {
	if got := ErrorRate(0.8, true); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("ErrorRate = %v", got)
	}
	if got := ErrorRate(0.8, false); got != 0.8 {
		t.Fatalf("ErrorRate = %v", got)
	}
}

func TestParallelAndSequentialGainsIdentical(t *testing.T) {
	// What-if chains are reseeded per candidate from one shared base draw
	// and every excursion is rolled back, so gains must be byte-identical
	// across worker counts — not merely statistically close.
	for _, strat := range []func(*Context, []int) []float64{InformationGains, SourceGains} {
		ctx, _ := newCtx(t, 14)
		cand := candidates(ctx)
		gains := map[int][]float64{}
		for _, workers := range []int{1, 2, 4} {
			c := *ctx
			c.RNG = stats.NewRNG(99)
			c.Workers = workers
			c.Pool = nil
			gains[workers] = strat(&c, cand)
		}
		for _, workers := range []int{2, 4} {
			for i := range gains[1] {
				if math.IsNaN(gains[1][i]) {
					t.Fatal("NaN gain")
				}
				if gains[workers][i] != gains[1][i] {
					t.Fatalf("workers=%d: gain[%d] = %v, want %v (workers=1)",
						workers, i, gains[workers][i], gains[1][i])
				}
			}
		}
	}
}

func TestRankIdenticalWithPersistentPool(t *testing.T) {
	// A session-owned persistent Pool must rank exactly like a transient
	// one: worker chains are resynchronised every round.
	ctx, _ := newCtx(t, 16)
	pooled := *ctx
	pooled.RNG = stats.NewRNG(7)
	pooled.Pool = NewPool(ctx.Engine)
	fresh := *ctx
	fresh.RNG = stats.NewRNG(7)
	fresh.Pool = nil
	a := (InfoGain{}).Rank(&pooled, 5)
	b := (InfoGain{}).Rank(&fresh, 5)
	if len(a) != len(b) {
		t.Fatalf("rank lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank[%d] = %d with pool, %d without", i, a[i], b[i])
		}
	}
	// And a second round on the same pool (stale worker state must be
	// resynced, not accumulated).
	pooled.RNG = stats.NewRNG(7)
	fresh.RNG = stats.NewRNG(7)
	a = (InfoGain{}).Rank(&pooled, 5)
	b = (InfoGain{}).Rank(&fresh, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("second round rank[%d] = %d with pool, %d without", i, a[i], b[i])
		}
	}
}

func TestCandidatePoolCap(t *testing.T) {
	ctx, _ := newCtx(t, 15)
	ctx.CandidatePool = 5
	if got := candidates(ctx); len(got) != 5 {
		t.Fatalf("pool = %d, want 5", len(got))
	}
	ctx.CandidatePool = 0
	if got := candidates(ctx); len(got) != ctx.DB.NumClaims {
		t.Fatalf("pool = %d, want all %d", len(got), ctx.DB.NumClaims)
	}
}

func TestGainCacheEpochSemantics(t *testing.T) {
	g := NewGainCache(3)
	g.storeGain(gainInfo, 5, 2, 0.25)
	if v, ok := g.gain(gainInfo, 5, 2); !ok || v != 0.25 {
		t.Fatalf("stored gain not returned: %v %v", v, ok)
	}
	// The other kind is a separate namespace.
	if _, ok := g.gain(gainSource, 5, 2); ok {
		t.Fatal("kind namespaces leaked")
	}
	// Dirtying the component invalidates its entries and moves its seeds.
	seedBefore := g.scoreBase(gainInfo, 2)
	sweepBefore := g.SweepSeed(2)
	otherBefore := g.scoreBase(gainInfo, 3)
	g.InvalidateComponent(2)
	if _, ok := g.gain(gainInfo, 5, 2); ok {
		t.Fatal("entry survived component invalidation")
	}
	if g.scoreBase(gainInfo, 2) == seedBefore || g.SweepSeed(2) == sweepBefore {
		t.Fatal("component epoch bump did not move its seeds")
	}
	if g.scoreBase(gainInfo, 3) != otherBefore {
		t.Fatal("component epoch bump moved a clean component's seed")
	}
	// A global invalidation clears everything.
	g.storeGain(gainInfo, 5, 2, 0.5)
	g.InvalidateAll()
	if _, ok := g.gain(gainInfo, 5, 2); ok {
		t.Fatal("entry survived global invalidation")
	}
	// Full-recompute mode: identical seeds, lookups always miss.
	g2 := NewGainCache(3)
	if g2.scoreBase(gainSource, 1) != NewGainCache(3).scoreBase(gainSource, 1) {
		t.Fatal("seed universe not a pure function of the session seed")
	}
	if g2.scoreBase(gainInfo, 1) == g2.scoreBase(gainSource, 1) {
		t.Fatal("info and source scoring streams must be independent")
	}
	g2.storeGain(gainSource, 1, 1, 0.75)
	g2.SetFullRecompute(true)
	if _, ok := g2.gain(gainSource, 1, 1); ok {
		t.Fatal("full-recompute mode served a cached gain")
	}
	if g2.Hits() != 0 || g2.Misses() == 0 {
		t.Fatalf("telemetry: hits=%d misses=%d", g2.Hits(), g2.Misses())
	}
}

func TestCachedGainsExactAcrossRounds(t *testing.T) {
	// Over a multi-component corpus, a second scoring round with an
	// untouched cache must serve every gain from cache — and both rounds,
	// plus a full-recompute context over the same engine, must agree
	// bit-for-bit.
	corpus := synth.GenerateCommunities(synth.Wikipedia.Scaled(0.5), 4, 21)
	state := factdb.NewState(corpus.DB.NumClaims)
	engine := em.NewEngine(corpus.DB, em.DefaultConfig(), 22)
	engine.InferFull(state)
	ctx := &Context{
		DB: corpus.DB, State: state, Engine: engine,
		Grounding: engine.Grounding(state),
		RNG:       stats.NewRNG(23), Workers: 2,
		CandidatePool: 16,
		Gains:         NewGainCache(24),
	}
	cand := candidates(ctx)
	for _, strat := range []func(*Context, []int) []float64{InformationGains, SourceGains} {
		first := strat(ctx, cand)
		missesAfter := ctx.Gains.Misses()
		again := strat(ctx, cand)
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("gain[%d] changed across rounds: %v vs %v", i, first[i], again[i])
			}
		}
		if ctx.Gains.Misses() != missesAfter {
			t.Fatalf("second round missed the cache %d times", ctx.Gains.Misses()-missesAfter)
		}

		full := *ctx
		full.Gains = NewGainCache(24)
		full.Gains.SetFullRecompute(true)
		full.Pool = nil
		recomputed := strat(&full, cand)
		for i := range first {
			if first[i] != recomputed[i] {
				t.Fatalf("cached gain[%d] = %v, full recompute = %v", i, first[i], recomputed[i])
			}
		}
	}
	if ctx.Gains.Hits() == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestDirtyComponentRescoresOnlyThatComponent(t *testing.T) {
	corpus := synth.GenerateCommunities(synth.Wikipedia.Scaled(0.5), 4, 31)
	state := factdb.NewState(corpus.DB.NumClaims)
	engine := em.NewEngine(corpus.DB, em.DefaultConfig(), 32)
	engine.InferFull(state)
	ctx := &Context{
		DB: corpus.DB, State: state, Engine: engine,
		Grounding: engine.Grounding(state),
		RNG:       stats.NewRNG(33), Workers: 1,
		CandidatePool: 16,
		Gains:         NewGainCache(34),
	}
	cand := candidates(ctx)
	first := InformationGains(ctx, cand)
	dirty := ctx.DB.ComponentOf(cand[0])
	ctx.Gains.InvalidateComponent(dirty)
	second := InformationGains(ctx, cand)
	for i, c := range cand {
		clean := ctx.DB.ComponentOf(c) != dirty
		if clean && first[i] != second[i] {
			t.Fatalf("clean candidate %d re-scored differently: %v vs %v", c, first[i], second[i])
		}
	}
	// The dirty component was genuinely re-scored: its candidates missed.
	var dirtyCands int64
	for _, c := range cand {
		if ctx.DB.ComponentOf(c) == dirty {
			dirtyCands++
		}
	}
	if dirtyCands == 0 {
		t.Skip("candidate pool missed the dirty component")
	}
	if hits := ctx.Gains.Hits(); hits != int64(len(cand))-dirtyCands {
		t.Fatalf("hits = %d, want %d clean candidates", hits, int64(len(cand))-dirtyCands)
	}
}
