package guidance

import (
	"reflect"
	"slices"
	"testing"

	"factcheck/internal/em"
	"factcheck/internal/factdb"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// TestSharedWorkersAreTraceNeutral: workers on the free list serve
// whichever session borrows them next, so sessions of different sizes
// ranking alternately — each round adopting chains last sized for the
// other — must rank exactly as each does alone. A worker that kept
// anything of its last session (a short shard order, stale agreement
// counters) would show here.
func TestSharedWorkersAreTraceNeutral(t *testing.T) {
	cfg := em.DefaultConfig()
	cfg.BurnIn, cfg.Samples, cfg.EMIters = 6, 10, 1
	newRanker := func(scale float64, seed int64) func() []int {
		corpus := synth.Generate(synth.Wikipedia.Scaled(scale), seed)
		e := em.NewEngine(corpus.DB, cfg, 4)
		state := factdb.NewState(corpus.DB.NumClaims)
		e.InferFull(state)
		ctx := &Context{
			DB:        corpus.DB,
			State:     state,
			Engine:    e,
			Grounding: e.Grounding(state),
			RNG:       stats.NewRNG(5),
			Workers:   2,
			Pool:      NewPool(e),
		}
		round := 0
		return func() []int {
			round++
			c := (InfoGain{}).Rank(ctx, 1)[0]
			state.SetLabel(c, corpus.Truth[c])
			e.InferIncremental(state)
			if round%2 == 0 {
				return (SourceGain{}).Rank(ctx, 4)
			}
			return (InfoGain{}).Rank(ctx, 4)
		}
	}
	solo := func(scale float64, seed int64) (out [][]int) {
		next := newRanker(scale, seed)
		for range 4 {
			out = append(out, next())
		}
		return out
	}
	small, large := solo(0.1, 3), solo(0.3, 4)
	nextSmall, nextLarge := newRanker(0.1, 3), newRanker(0.3, 4)
	for round := range 4 {
		if got := nextSmall(); !reflect.DeepEqual(got, small[round]) {
			t.Fatalf("round %d: the small corpus ranks %v alternating, %v alone", round, got, small[round])
		}
		if got := nextLarge(); !reflect.DeepEqual(got, large[round]) {
			t.Fatalf("round %d: the large corpus ranks %v alternating, %v alone", round, got, large[round])
		}
	}
}

// TestFreeListReusesDetachedWorkers: a round returns its workers to the
// free list with chains that reach no session, and the next round takes
// the same workers instead of making new ones.
func TestFreeListReusesDetachedWorkers(t *testing.T) {
	ctx, _ := newCtx(t, 43)
	ctx.Workers = 1
	(InfoGain{}).Rank(ctx, 1)
	idle.Lock()
	parked := slices.Clone(idle.ws)
	idle.Unlock()
	if len(parked) == 0 {
		t.Fatal("a scoring round left no worker on the free list")
	}
	for i, w := range parked {
		ch := reflect.ValueOf(w.Chain).Elem()
		for _, f := range []string{"db", "claims", "src", "w", "diff", "cold"} {
			if !ch.FieldByName(f).IsNil() {
				t.Errorf("parked worker %d still holds its session's %s", i, f)
			}
		}
		if !ch.FieldByName("snap").FieldByName("sources").IsNil() {
			t.Errorf("parked worker %d still holds its session's component sources", i)
		}
	}
	(InfoGain{}).Rank(ctx, 1)
	idle.Lock()
	again := slices.Clone(idle.ws)
	idle.Unlock()
	if !slices.Equal(parked, again) {
		t.Errorf("the second round parked %d workers, not the %d the first one left", len(again), len(parked))
	}
}

// TestWhatIfRankAllocations pins the steady-state allocation count of a
// what-if scoring round with a persistent pool, for both gain families:
// what remains is per round (candidate, gain and ranking slices, the
// component-entropy map), never per hypothetical. The source-driven
// family used to build a map per hypothetical — hundreds of allocations
// a round where the information-driven one made a dozen.
func TestWhatIfRankAllocations(t *testing.T) {
	ctx, _ := newCtx(t, 41)
	ctx.Workers = 1
	ctx.Pool = NewPool(ctx.Engine)
	for _, s := range []Strategy{InfoGain{}, SourceGain{}} {
		s.Rank(ctx, 1) // grow the pool's buffers
		if n := testing.AllocsPerRun(3, func() { s.Rank(ctx, 1) }); n > 30 {
			t.Errorf("%s.Rank allocates %v times a round, want <= 30", s.Name(), n)
		}
	}
}
