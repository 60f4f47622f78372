package gibbs_test

import (
	"fmt"
	"math"
	"testing"

	"factcheck/internal/core"
	"factcheck/internal/gibbs"
	"factcheck/internal/sim"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// boundStats is what TestFastLogOddsWithinBound measures over a walk.
type boundStats struct {
	maxErr, maxDelta     float64
	draws, static, exact int
}

// walk sweeps ch and, after every sweep, holds every claim's fast
// log-odds to the proved bound δ/BoundMargin around the definition and
// puts one uniform u per unfrozen claim through draw's stages, counting
// the draws the static thresholds decide and those that neither they nor
// the bracket decide, which reach the exact path.
func (bs *boundStats) walk(t *testing.T, ch *gibbs.Chain, nClaims, sweeps int, r *stats.RNG) {
	t.Helper()
	for i := 0; i < sweeps; i++ {
		ch.Sweep(nil)
		for c := 0; c < nClaims; c++ {
			l, d := ch.FastLogOdds(c)
			err := math.Abs(l - ch.LogOdds(c))
			if !(err <= d/gibbs.BoundMargin) {
				t.Fatalf("claim %d: |l̃ − LogOdds| = %g exceeds the proved bound %g (l̃ %v)", c, err, d/gibbs.BoundMargin, l)
			}
			bs.maxErr, bs.maxDelta = math.Max(bs.maxErr, err), math.Max(bs.maxDelta, d)
			if ch.Frozen(c) {
				continue
			}
			bs.draws++
			u := r.Float64()
			if _, ok := ch.Static(u, c); ok {
				bs.static++
			} else if _, ok := ch.Bracket(u, c); !ok {
				bs.exact++
			}
		}
	}
}

// shares formats the three stages' shares of a walk's draws.
func (bs *boundStats) shares() string {
	n := float64(bs.draws)
	bracket := bs.draws - bs.static - bs.exact
	return fmt.Sprintf("static %.1f %%, bracket %.1f %%, exact %.2f %% of %d draws",
		100*float64(bs.static)/n, 100*float64(bracket)/n, 100*float64(bs.exact)/n, bs.draws)
}

// TestFastLogOddsWithinBound: the bound is a bound, and not a lazy one.
// The bracket is BoundMargin proved bounds wide, so the assertion
// |l̃ − LogOdds(c)| ≤ δ_c/BoundMargin is the proof itself put to the
// test, on random chains and along 10⁵ sweeps (1.25·10⁷ draws) of the
// served wiki state BenchmarkGibbsSweep times; and a δ_c inflated until
// the proof is trivial would push more than 3 % of those draws to the
// exact path. On that state the static thresholds must decide at least
// 70 % of draws — a μ_c inflated until they decide nothing fails here.
// The served subtest then answers the session to its end and logs the
// three stages' shares by label range.
func TestFastLogOddsWithinBound(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		r := stats.NewRNG(20261005)
		var bs boundStats
		for round := 0; round < 300; round++ {
			db := gibbs.RandomDB(r, round%3)
			ch := gibbs.NewChain(db, stats.NewRNG(int64(r.Uint64())))
			ch.SetModel(gibbs.RandomModel(r, db, round%4 != 0))
			bs.walk(t, ch, db.NumClaims, 20, r)
		}
		t.Logf("max |l̃ − l| %.3g, max δ %.3g; %s", bs.maxErr, bs.maxDelta, bs.shares())
	})
	t.Run("served", func(t *testing.T) {
		sweeps := 100_000
		if testing.Short() {
			sweeps = 5_000
		}
		// The state of bench_test.go's servedSession: wiki, 32 oracle
		// labels, θ_T ≠ 0.
		corpus := synth.Generate(synth.Wikipedia, 7)
		s, err := core.OpenSession(corpus.DB, core.Options{Seed: 11, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		oracle := &sim.Oracle{Truth: corpus.Truth}
		for i := 0; i < 32; i++ {
			s.Step(oracle)
		}
		if s.Engine.Model().TrustWeight() == 0 {
			t.Fatal("served state has no trust coupling")
		}
		var bs boundStats
		bs.walk(t, s.Engine.Chain(), corpus.DB.NumClaims, sweeps, stats.NewRNG(3))
		t.Logf("max |l̃ − l| %.3g, max δ %.3g; %s", bs.maxErr, bs.maxDelta, bs.shares())
		if share := float64(bs.exact) / float64(bs.draws); share > 0.03 {
			t.Fatalf("%.2f %% of served draws reach the exact path, want ≤ 3 %%", 100*share)
		}
		if share := float64(bs.static) / float64(bs.draws); share < 0.70 {
			t.Fatalf("the static thresholds decide %.1f %% of served draws, want ≥ 70 %%", 100*share)
		}

		// The rest of the session, 20 sweeps after each answer, on a
		// fresh session so the walk above does not move its trace.
		s, err = core.OpenSession(corpus.DB, core.Options{Seed: 11, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ranges := []struct {
			upTo int // labels
			bs   boundStats
		}{{upTo: 8}, {upTo: 32}, {upTo: 80}, {upTo: corpus.DB.NumClaims}}
		r, k := stats.NewRNG(5), 0
		for labels := 1; !s.Step(oracle); labels++ {
			for labels > ranges[k].upTo {
				k++
			}
			ranges[k].bs.walk(t, s.Engine.Chain(), corpus.DB.NumClaims, 20, r)
		}
		from := 1
		for _, rg := range ranges {
			t.Logf("labels %d–%d: %s", from, rg.upTo, rg.bs.shares())
			from = rg.upTo + 1
		}
	})
}

// TestWhatIfShares logs, by label range over a whole served wiki session
// (the corpus and options of the served subtest above), the two shares
// the what-if kernel's exact shortcuts feed on. A one-component session
// that scores every unlabelled claim (CandidatePool 0, as
// guided-connected serves) runs one of a candidate's two what-if
// branches, not two, when its P is exactly 0 or 1 (guidance.whatIfGain);
// and a what-if sweep shuffles every member of the component but draws
// only the unfrozen ones — frozen are the labelled claims and the
// clamped candidate.
func TestWhatIfShares(t *testing.T) {
	corpus := synth.Generate(synth.Wikipedia, 7)
	s, err := core.OpenSession(corpus.DB, core.Options{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	oracle := &sim.Oracle{Truth: corpus.Truth}
	n := corpus.DB.NumClaims
	ranges := []struct{ upTo, scored, certain, frozen, members int }{{upTo: 8}, {upTo: 32}, {upTo: 80}, {upTo: n}}
	k := 0
	for done := false; !done; done = s.Step(oracle) {
		for s.State.NumLabeled() > ranges[k].upTo {
			k++
		}
		rg := &ranges[k]
		frozen := 1 // the clamped candidate
		for c := 0; c < n; c++ {
			if s.Engine.Chain().Frozen(c) {
				frozen++
			}
		}
		for c := 0; c < n; c++ {
			if s.State.Labeled(c) {
				continue
			}
			rg.scored++
			rg.frozen += frozen
			rg.members += n
			if p := s.State.P(c); p == 0 || p == 1 {
				rg.certain++
			}
		}
	}
	from := 0
	for _, rg := range ranges {
		t.Logf("labels %d–%d: P ∈ {0, 1} for %.1f %% of %d scored candidates; %.1f %% of what-if sweep members frozen",
			from, rg.upTo, 100*float64(rg.certain)/float64(rg.scored), rg.scored, 100*float64(rg.frozen)/float64(rg.members))
		from = rg.upTo + 1
	}
}
