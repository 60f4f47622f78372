package core

import (
	"testing"

	"factcheck/internal/factdb"
	"factcheck/internal/guidance"
	"factcheck/internal/sim"
	"factcheck/internal/synth"
)

func smallCorpus(t *testing.T, seed int64) *synth.Corpus {
	t.Helper()
	return synth.Generate(synth.Wikipedia.Scaled(0.25), seed)
}

func TestSessionInitialises(t *testing.T) {
	c := smallCorpus(t, 1)
	s := NewSession(c.DB, Options{Seed: 2})
	if s.State.NumLabeled() != 0 {
		t.Fatal("fresh session has labels")
	}
	if len(s.Grounding()) != c.DB.NumClaims {
		t.Fatal("grounding size wrong")
	}
	if s.Iterations() != 0 {
		t.Fatal("iteration counter should start at 0")
	}
}

func TestStepValidatesOneClaim(t *testing.T) {
	c := smallCorpus(t, 3)
	s := NewSession(c.DB, Options{Seed: 4, CandidatePool: 8, Workers: 1})
	user := &sim.Oracle{Truth: c.Truth}
	done := s.Step(user)
	if done {
		t.Fatal("one step should not exhaust the corpus")
	}
	if s.State.NumLabeled() != 1 {
		t.Fatalf("labels = %d, want 1", s.State.NumLabeled())
	}
	if len(s.History()) != 1 {
		t.Fatalf("history = %v", s.History())
	}
	v := s.History()[0]
	if v.Verdict != c.Truth[v.Claim] {
		t.Fatal("oracle verdict mismatch")
	}
	// The label must be reflected in the grounding.
	if s.Grounding()[v.Claim] != v.Verdict {
		t.Fatal("grounding ignores the label")
	}
}

func TestRunReachesGoal(t *testing.T) {
	c := smallCorpus(t, 5)
	opts := Options{
		Seed:          6,
		CandidatePool: 8,
		Workers:       1,
		Goal: func(s *Session) bool {
			return s.Precision(c.Truth) >= 0.9
		},
	}
	s := NewSession(c.DB, opts)
	n := s.Run(&sim.Oracle{Truth: c.Truth})
	if s.Precision(c.Truth) < 0.9 {
		t.Fatalf("run stopped below goal: precision %v after %d validations",
			s.Precision(c.Truth), n)
	}
	if n >= c.DB.NumClaims {
		t.Fatalf("goal needed the entire corpus (%d of %d)", n, c.DB.NumClaims)
	}
}

func TestRunRespectsBudget(t *testing.T) {
	c := smallCorpus(t, 7)
	s := NewSession(c.DB, Options{Seed: 8, Budget: 5, CandidatePool: 8, Workers: 1})
	s.Run(&sim.Oracle{Truth: c.Truth})
	if s.State.NumLabeled() != 5 {
		t.Fatalf("labels = %d, want budget 5", s.State.NumLabeled())
	}
}

func TestRunExhaustsCorpus(t *testing.T) {
	c := synth.Generate(synth.Wikipedia.Scaled(0.08), 9)
	s := NewSession(c.DB, Options{Seed: 10, Strategy: guidance.Random{}})
	s.Run(&sim.Oracle{Truth: c.Truth})
	if s.State.NumLabeled() != c.DB.NumClaims {
		t.Fatalf("labels = %d of %d", s.State.NumLabeled(), c.DB.NumClaims)
	}
	// Full validation with an oracle must give perfect precision.
	if p := s.Precision(c.Truth); p != 1 {
		t.Fatalf("full-oracle precision = %v", p)
	}
}

func TestPrecisionImprovesOverRandomBaselineEventually(t *testing.T) {
	c := smallCorpus(t, 11)
	budget := c.DB.NumClaims / 2
	hybrid := NewSession(c.DB, Options{Seed: 12, Budget: budget, CandidatePool: 10, Workers: 1})
	hybrid.Run(&sim.Oracle{Truth: c.Truth})
	if p := hybrid.Precision(c.Truth); p < 0.6 {
		t.Fatalf("hybrid precision after 50%% effort = %v", p)
	}
}

func TestBatchStep(t *testing.T) {
	c := smallCorpus(t, 13)
	s := NewSession(c.DB, Options{Seed: 14, BatchSize: 5, CandidatePool: 10, Workers: 1})
	s.Step(&sim.Oracle{Truth: c.Truth})
	if s.State.NumLabeled() != 5 {
		t.Fatalf("batch step labelled %d claims, want 5", s.State.NumLabeled())
	}
	if s.Iterations() != 1 {
		t.Fatalf("iterations = %d, want 1 (one inference per batch)", s.Iterations())
	}
}

func TestSkippingUserFallsBackToSecondBest(t *testing.T) {
	c := smallCorpus(t, 15)
	oracle := &sim.Oracle{Truth: c.Truth}
	skipper := sim.NewSkipper(oracle, 1.0, 16) // always skips the first ask
	s := NewSession(c.DB, Options{Seed: 17, CandidatePool: 8, Workers: 1})
	done := s.Step(skipper)
	if done {
		t.Fatal("step with skipper should still label a claim")
	}
	if s.State.NumLabeled() != 1 {
		t.Fatalf("labels = %d, want 1 (second-best fallback)", s.State.NumLabeled())
	}
	skips := 0
	for i := 0; i < s.TranscriptLen(); i++ {
		if e, ingest := s.TranscriptAt(i); !ingest && !e.OK {
			skips++
		}
	}
	if skips == 0 {
		t.Fatal("no skip recorded in the transcript")
	}
}

func TestConfirmationCheckDetectsInjectedMistake(t *testing.T) {
	c := smallCorpus(t, 19)
	s := NewSession(c.DB, Options{Seed: 20, CandidatePool: 8, Workers: 1})
	oracle := &sim.Oracle{Truth: c.Truth}
	// Label 40% of claims truthfully so the model is well anchored.
	for i := 0; i < c.DB.NumClaims*2/5; i++ {
		s.Step(oracle)
	}
	// Inject one deliberate mistake on a claim with corroboration.
	var victim int
	found := false
	for _, cand := range s.State.Unlabeled() {
		if len(c.DB.ClaimSources(cand)) >= 2 {
			victim = cand
			found = true
			break
		}
	}
	if !found {
		victim = s.State.Unlabeled()[0]
	}
	s.State.SetLabel(victim, !c.Truth[victim])
	s.Engine.InferIncremental(s.State)
	res := s.ConfirmationCheck(oracle)
	flagged := false
	for _, f := range res.Flagged {
		if f == victim {
			flagged = true
		}
	}
	if !flagged {
		t.Skipf("mistake on claim %d not flagged this run (stochastic check)", victim)
	}
	// The oracle repairs it.
	if v, _ := s.State.Label(victim); v != c.Truth[victim] {
		t.Fatal("flagged mistake was not repaired by the oracle")
	}
	if res.Repaired < 1 {
		t.Fatal("repair count not recorded")
	}
}

func TestErroneousUserStillConverges(t *testing.T) {
	c := smallCorpus(t, 21)
	user := sim.NewErroneous(c.Truth, 0.15, 22)
	s := NewSession(c.DB, Options{Seed: 23, CandidatePool: 8, Workers: 1, ConfirmEvery: 0.05})
	s.Run(user)
	// Even with 15% user error and repairs, precision should be solid.
	if p := s.Precision(c.Truth); p < 0.7 {
		t.Fatalf("precision with erroneous user = %v", p)
	}
}

func TestObserverSeesEveryIteration(t *testing.T) {
	c := smallCorpus(t, 25)
	count := 0
	s := NewSession(c.DB, Options{Seed: 26, Budget: 6, CandidatePool: 6, Workers: 1})
	s.Observer = func(sess *Session) {
		count++
		if sess.Effort() == 0 {
			t.Error("observer ran before any labels")
		}
	}
	s.Run(&sim.Oracle{Truth: c.Truth})
	if count != s.Iterations() {
		t.Fatalf("observer ran %d times for %d iterations", count, s.Iterations())
	}
}

func TestZScoreEvolves(t *testing.T) {
	c := smallCorpus(t, 27)
	s := NewSession(c.DB, Options{Seed: 28, Budget: 8, CandidatePool: 6, Workers: 1})
	s.Run(&sim.Oracle{Truth: c.Truth})
	z := s.ZScore()
	if z < 0 || z > 1 {
		t.Fatalf("z = %v out of [0,1]", z)
	}
}

func TestGoalStopsImmediately(t *testing.T) {
	c := smallCorpus(t, 29)
	s := NewSession(c.DB, Options{Seed: 30, Goal: func(*Session) bool { return true }})
	n := s.Run(&sim.Oracle{Truth: c.Truth})
	if n != 0 {
		t.Fatalf("run with trivially-true goal performed %d validations", n)
	}
}

func TestStrategiesPluggable(t *testing.T) {
	c := synth.Generate(synth.Wikipedia.Scaled(0.1), 31)
	for _, strat := range []guidance.Strategy{
		guidance.Random{}, guidance.Uncertainty{}, guidance.InfoGain{},
		guidance.SourceGain{}, &guidance.Hybrid{},
	} {
		s := NewSession(c.DB, Options{Seed: 32, Budget: 3, Strategy: strat, CandidatePool: 5, Workers: 1})
		s.Run(&sim.Oracle{Truth: c.Truth})
		if s.State.NumLabeled() != 3 {
			t.Fatalf("%s labelled %d, want 3", strat.Name(), s.State.NumLabeled())
		}
	}
}

func TestHistoryRecordsRepairs(t *testing.T) {
	c := smallCorpus(t, 33)
	s := NewSession(c.DB, Options{Seed: 34, CandidatePool: 6, Workers: 1})
	oracle := &sim.Oracle{Truth: c.Truth}
	for i := 0; i < 10; i++ {
		s.Step(oracle)
	}
	// Corrupt a label, then check; the repair must appear in history.
	victim := s.History()[0].Claim
	s.State.SetLabel(victim, !c.Truth[victim])
	s.Engine.InferIncremental(s.State)
	res := s.ConfirmationCheck(oracle)
	if len(res.Flagged) > 0 {
		foundRepair := false
		for _, h := range s.History() {
			if h.Repaired {
				foundRepair = true
			}
		}
		if !foundRepair {
			t.Fatal("no repaired entry in history despite flags")
		}
	}
}

func TestSelectionTraceIdenticalAcrossWorkerCounts(t *testing.T) {
	// The whole Alg. 1 loop — sharded E-steps, pooled what-if scoring,
	// hybrid roulette — must produce the same claim selections and
	// verdicts for a fixed seed no matter how many workers run it.
	c := smallCorpus(t, 40)
	workerCounts := []int{1, 2, 4}
	for _, strat := range []guidance.Strategy{guidance.InfoGain{}, guidance.SourceGain{}, &guidance.Hybrid{}} {
		traces := make([][]Validation, len(workerCounts))
		for i, workers := range workerCounts {
			s := NewSession(c.DB, Options{
				Seed: 41, Budget: 8, CandidatePool: 8,
				Strategy: strat, Workers: workers,
			})
			s.Run(&sim.Oracle{Truth: c.Truth})
			traces[i] = s.History()
		}
		for i := 1; i < len(traces); i++ {
			if len(traces[i]) != len(traces[0]) {
				t.Fatalf("%s: workers=%d trace length %d, want %d",
					strat.Name(), workerCounts[i], len(traces[i]), len(traces[0]))
			}
			for j := range traces[i] {
				if traces[i][j] != traces[0][j] {
					t.Fatalf("%s: workers=%d diverged at step %d: %+v vs %+v",
						strat.Name(), workerCounts[i], j, traces[i][j], traces[0][j])
				}
			}
		}
	}
}

// countingLender lends nothing and counts what it was asked.
type countingLender struct{ borrows, want int }

func (l *countingLender) Borrow(want int) int { l.borrows, l.want = l.borrows+1, want; return 0 }
func (l *countingLender) Return(int)          {}

// TestWorkersKnobReachesEMConfig: a session's Workers and Lanes reach
// its engine's sharded E-step, which traces cannot show. Opening runs
// no scoring round, so every borrow there is the E-step's, asking for
// the Workers − 1 lanes beyond its caller.
func TestWorkersKnobReachesEMConfig(t *testing.T) {
	l := &countingLender{}
	NewSession(synth.GenerateCommunities(synth.Wikipedia.Scaled(0.2), 4, 31).DB, Options{Seed: 32, Workers: 3, Lanes: l})
	if l.borrows == 0 || l.want != 2 {
		t.Fatalf("the opening E-step borrowed %d times from Options.Lanes, last asking %d lanes; want some, asking 2", l.borrows, l.want)
	}
}

func TestSessionStringer(t *testing.T) {
	c := synth.Generate(synth.Wikipedia.Scaled(0.08), 35)
	s := NewSession(c.DB, Options{Seed: 36})
	if s.String() == "" {
		t.Fatal("empty session string")
	}
	var _ factdb.Grounding = s.Grounding()
}
