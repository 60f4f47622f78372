package guidance

import (
	"reflect"
	"testing"

	"factcheck/internal/em"
	"factcheck/internal/factdb"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// TestPoolTrimIsTraceNeutral verifies that trimming a pool's worker
// buffers between rounds — the idle-session reclamation of the serving
// layer — never changes scores: lanes are reseeded and resynchronised
// every round, so cached buffers carry no cross-round information.
func TestPoolTrimIsTraceNeutral(t *testing.T) {
	corpus := synth.Generate(synth.Wikipedia.Scaled(0.1), 3)
	cfg := em.DefaultConfig()
	cfg.BurnIn, cfg.Samples, cfg.EMIters = 6, 10, 1

	rank := func(trim bool) [][]int {
		e := em.NewEngine(corpus.DB, cfg, 4)
		state := factdb.NewState(corpus.DB.NumClaims)
		e.InferFull(state)
		ctx := &Context{
			DB:            corpus.DB,
			State:         state,
			Engine:        e,
			Grounding:     e.Grounding(state),
			RNG:           stats.NewRNG(5),
			CandidatePool: 6,
			Workers:       2,
			Pool:          NewPool(e),
		}
		var out [][]int
		for round := 0; round < 3; round++ {
			out = append(out, (InfoGain{}).Rank(ctx, 4))
			if trim {
				ctx.Pool.Trim()
				e.ReleaseWorkers()
			}
		}
		return out
	}

	plain, trimmed := rank(false), rank(true)
	if !reflect.DeepEqual(plain, trimmed) {
		t.Fatalf("Trim changed rankings:\n plain=%v\n trimmed=%v", plain, trimmed)
	}
}

func TestPoolTrimBounds(t *testing.T) {
	p := &Pool{workers: make([]Worker, 4)}
	p.Trim()
	if len(p.workers) != 0 {
		t.Fatalf("Trim kept %d workers", len(p.workers))
	}
	p.Trim() // nothing cached: a no-op
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
