package core

import (
	"reflect"
	"testing"

	"factcheck/internal/guidance"
	"factcheck/internal/sim"
)

// degradedSchedule is the controller stand-in for the property tests: a
// pure function from step index to ranking mode. Steps 3–7 run
// degraded, everything else on the configured hybrid strategy.
func degradedSchedule(i int) bool { return i >= 3 && i < 8 }

// stepWithSchedule drives steps [from, to) applying the mode schedule
// before each, the way the serving layer applies the controller's mode
// per request.
func stepWithSchedule(s *Session, user User, from, to int) {
	for i := from; i < to; i++ {
		s.SetDegraded(degradedSchedule(i))
		if s.Step(user) {
			break
		}
	}
}

// TestDegradedTraceReplayBitIdentical is the degraded-mode determinism
// property: a session that degrades mid-run produces a transcript that
// (a) annotates exactly the degraded iterations, (b) replays
// bit-identically from a snapshot taken mid-degradation, and (c) after
// recovery back to hybrid scoring continues exactly like a restored
// copy that never has a controller attached — because the recorded mode,
// not any live controller state, is what replay consumes.
func TestDegradedTraceReplayBitIdentical(t *testing.T) {
	corpus := communityCorpus(t, 91)
	opts := fastOpts(92)
	opts.CandidatePool = 12
	opts.ConfirmEvery = 0.04 // repair prompts land inside degraded iterations too

	a, err := OpenSession(corpus.DB, withStrategy(opts, &guidance.Hybrid{}))
	if err != nil {
		t.Fatal(err)
	}
	// Wrong answers and skips make the transcript non-trivial (multiple
	// elicitations per step).
	user := sim.NewSkipper(sim.NewErroneous(corpus.Truth, 0.2, 55), 0.25, 56)
	stepWithSchedule(a, user, 0, 6)

	snap := a.Snapshot() // mid-degradation: steps 3–5 ran degraded
	if snap.Version != SnapshotVersion {
		t.Fatalf("snapshot version = %d, want %d", snap.Version, SnapshotVersion)
	}
	var sawDegraded, sawNormal bool
	for _, e := range snap.Elicitations {
		if e.Degraded {
			sawDegraded = true
		} else {
			sawNormal = true
		}
	}
	if !sawDegraded || !sawNormal {
		t.Fatalf("transcript should mix modes: degraded=%v normal=%v", sawDegraded, sawNormal)
	}

	// (b) Restore mid-degradation: bit-identical state, then bit-identical
	// continuation through the rest of the degraded phase and recovery,
	// driven by a stateless oracle under the same mode schedule.
	r, err := RestoreSession(corpus.DB, withStrategy(opts, &guidance.Hybrid{}), snap)
	if err != nil {
		t.Fatalf("restore mid-degradation: %v", err)
	}
	assertSessionsEqual(t, a, r)
	oracle := &sim.Oracle{Truth: corpus.Truth}
	stepWithSchedule(a, oracle, 6, 12)
	stepWithSchedule(r, oracle, 6, 12)
	assertSessionsEqual(t, a, r)

	// (c) Recovery: a snapshot taken after the session returned to hybrid
	// scoring restores into a session that is never given a controller
	// (SetDegraded is never called) and still resumes the exact trace —
	// steps past the degraded phase are plain hybrid steps.
	snap2 := a.Snapshot()
	r2, err := RestoreSession(corpus.DB, withStrategy(opts, &guidance.Hybrid{}), snap2)
	if err != nil {
		t.Fatalf("restore post-recovery: %v", err)
	}
	if r2.Degraded() {
		t.Fatal("restored session left in degraded mode")
	}
	assertSessionsEqual(t, a, r2)
	for i := 0; i < 3; i++ {
		a.SetDegraded(false)
		da := a.Step(oracle)
		db := r2.Step(oracle) // no SetDegraded: controller disabled
		if da != db {
			t.Fatalf("post-recovery step %d: done diverged (%v vs %v)", i, da, db)
		}
	}
	assertSessionsEqual(t, a, r2)
}

// TestDegradedRankingIsUncertaintyOrder pins what the fallback actually
// serves: while degraded, the computed ranking equals the RNG-free
// uncertainty order — and computing it consumes no RNG draws, so a
// mid-iteration mode flip after the ranking is cached changes nothing.
func TestDegradedRankingIsUncertaintyOrder(t *testing.T) {
	corpus := communityCorpus(t, 93)
	opts := fastOpts(94)
	opts.CandidatePool = 12

	s, err := OpenSession(corpus.DB, withStrategy(opts, &guidance.Hybrid{}))
	if err != nil {
		t.Fatal(err)
	}
	oracle := &sim.Oracle{Truth: corpus.Truth}
	for i := 0; i < 3; i++ {
		s.Step(oracle)
	}

	s.SetDegraded(true)
	got, err := s.Pending(0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.LastRankingDegraded() {
		t.Fatal("degraded ranking not annotated")
	}
	want := guidance.Uncertainty{}.Rank(s.ctx(), s.DB.NumClaims)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("degraded ranking is not the uncertainty order:\n got %v\nwant %v", got, want)
	}

	// Flipping the mode back while the ranking is cached must not
	// invalidate it: mode is captured at ranking time, keeping Pending
	// idempotent for mid-iteration controller transitions.
	s.SetDegraded(false)
	again, err := s.Pending(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Fatal("mode flip invalidated the cached ranking mid-iteration")
	}
	if !s.LastRankingDegraded() {
		t.Fatal("cached ranking's mode annotation changed on a mid-iteration flip")
	}

	// The elicitation recorded for this iteration carries the mode the
	// ranking was computed under (degraded), not the current flag.
	s.Step(oracle)
	tail := s.TranscriptTail(s.TranscriptLen() - 1)
	if len(tail) != 1 || !tail[0].Degraded {
		t.Fatalf("elicitation mode annotation = %+v, want Degraded=true", tail)
	}
}

// Degraded reports the session's current ranking mode (the mode the
// *next* computed ranking will use; see LastRankingDegraded for the mode
// of the cached one).
func (s *Session) Degraded() bool { return s.degraded }

// LastRankingDegraded reports whether the most recently computed ranking
// was produced in degraded mode.
func (s *Session) LastRankingDegraded() bool { return s.pendingDegraded }
