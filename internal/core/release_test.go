package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"factcheck/internal/factdb"
	"factcheck/internal/guidance"
	"factcheck/internal/sim"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
	"factcheck/internal/wire"
)

// regenerable returns c with corpus() attached to its database as the
// regenerator, as service.BuildCorpus attaches itself: a session over
// it releases the base when it is finished.
func regenerable(c *synth.Corpus, corpus func() *synth.Corpus) *synth.Corpus {
	c.DB.SetRegenerator(func() (*factdb.DB, error) { return corpus().DB, nil })
	return c
}

// imageLessGainEntries is the session's state image with its gain
// cache's entries left out and its epochs kept: the image the session
// writes once it has released the cache (Release).
func imageLessGainEntries(s *Session) []byte {
	if s.gains == nil {
		return s.Image()
	}
	held := s.gains
	defer func() { s.gains = held }()
	s.gains = guidance.ReadGainCacheImage(wire.NewReader(held.AppendImage(nil)), s.opts.Seed, s.DB.NumClaims)
	s.gains.Release()
	return s.Image()
}

// TestReleaseAtDoneIsExact: a session released whenever it is Done, as
// the serving layer releases one — run to Done, a delta ingested, which
// regenerates the base, run to Done again — stays equal to the same
// session nobody releases and to its transcript's replay: transcript,
// ranking, posteriors, gain-cache epochs, and image bytes, which while
// Done are the twin's less its gain entries. After the ingest the
// released session re-scores from an empty cache what the twin may
// serve from its own, and ranks the same. It holds its base exactly
// while it is not Done, also after reads (state, image, a no-op Step,
// Pending) and after a restore by image or by replay released in turn,
// and those reads, the transcript's applied delta included, regenerate
// no base; the budget arm ingests into a session whose budget is spent,
// which stays Done: the ingest samples, and is released again, keeping
// the delta's rows as its tail.
func TestReleaseAtDoneIsExact(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int
	}{{"exhausted", 0}, {"budget", 12}} {
		t.Run(tc.name, func(t *testing.T) {
			corpus := func() *synth.Corpus { return smallCorpus(t, 41) }
			opts := fastOpts(42)
			opts.Budget = tc.budget
			c := regenerable(corpus(), corpus)
			s, held := NewSession(c.DB, opts), NewSession(regenerable(corpus(), corpus).DB, opts)
			user := &sim.Oracle{Truth: c.Truth}
			releaseIfDone := func(x *Session) {
				if x.Done() {
					x.Release()
				}
			}

			check := func(at string) {
				t.Helper()
				if s.DB.BaseReleased() != s.Done() || held.DB.BaseReleased() {
					t.Fatalf("%s: done %v, base released %v; the twin's base released %v",
						at, s.Done(), s.DB.BaseReleased(), held.DB.BaseReleased())
				}
				if !reflect.DeepEqual(s.TranscriptTail(0), held.TranscriptTail(0)) {
					t.Fatalf("%s: transcripts diverged", at)
				}
				if s.Done() && !bytes.Equal(s.Image(), imageLessGainEntries(held)) {
					t.Fatalf("%s: image bytes diverged from the holding twin's less its gain entries", at)
				}
				if s.Done() && !bytes.Equal(s.Image(), imageLessGainEntries(s)) {
					t.Fatalf("%s: a finished session's image carries gain entries", at)
				}
				// assertSameState also requires equal gain-cache epochs.
				assertSameState(t, at, s, held)
				if !s.Done() {
					return
				}
				if !s.Step(user) || !held.Step(user) || !s.DB.BaseReleased() {
					t.Fatalf("%s: a no-op Step regenerated the base, or reported not done", at)
				}
				for _, snap := range []Snapshot{s.Snapshot(), {Version: SnapshotVersion, Elicitations: s.TranscriptTail(0)}} {
					if !s.DB.BaseReleased() {
						t.Fatalf("%s: reading the transcript regenerated the base", at)
					}
					r, err := RestoreSession(regenerable(corpus(), corpus).DB, opts, snap)
					if err != nil {
						t.Fatalf("%s: restore: %v", at, err)
					}
					if r.Restored().Image != (snap.Image != nil) || !r.Done() || r.DB.BaseReleased() {
						t.Fatalf("%s: restored %+v, done %v, base released %v; want done and held", at, r.Restored(), r.Done(), r.DB.BaseReleased())
					}
					releaseIfDone(r)
					// assertSameState ranks r, as s has ranked, and compares the
					// images less the gain cache, where s may keep the entries
					// of a ranking an ingest discarded; from s's image, r has
					// them too.
					assertSameState(t, at, r, s)
					if snap.Image != nil && !bytes.Equal(r.Image(), s.Image()) || !r.DB.BaseReleased() {
						t.Fatalf("%s: restored (image %v): image bytes diverged or base regenerated (released %v)",
							at, snap.Image != nil, r.DB.BaseReleased())
					}
				}
			}

			s.Run(user)
			held.Run(user)
			releaseIfDone(s)
			check("finished")
			d := synth.GenerateDelta(synth.Wikipedia.Scaled(0.25).At(s.DB.Stats()), 0.1, stats.StreamSeed(43, 0))
			for _, x := range []*Session{s, held} {
				if _, err := x.Ingest(d); err != nil {
					t.Fatal(err)
				}
			}
			user.Truth = append(user.Truth, d.Truth...)
			releaseIfDone(s)
			check("ingested")
			s.Run(user)
			held.Run(user)
			releaseIfDone(s)
			check("finished again")
		})
	}
}

// TestReleaseAtAnyStepIsExact: Release is exact at any step boundary,
// not only at Done. A session released at seeded random boundaries —
// live ones too, where the next ranking, sampling entry or ingest
// regenerates what it dropped — stays equal to a twin nobody releases:
// transcript, ranking (at a random half of the boundaries, so Step also
// ranks a released session itself), posteriors, session RNG, gain-cache
// epochs and image bytes less gain entries. Each arm ingests a delta
// mid-run, hands the session off by image just after releasing it (the
// restored session carries on in its place), runs to its budget, and
// ends with a confirmation check on the released Done session. Over the
// four what-if and uncertainty strategies, one and two workers, batch
// off and 3, and the confirmation check off and every 5 %.
func TestReleaseAtAnyStepIsExact(t *testing.T) {
	fx := newImageFixture()
	corpus := func() *synth.Corpus { return regenerable(fx.corpus(), fx.corpus) }
	for _, strategy := range []string{"uncertainty", "info", "source", "hybrid"} {
		for _, workers := range []int{1, 2} {
			for _, batch := range []int{0, 3} {
				for _, confirm := range []float64{0, 0.05} {
					name := fmt.Sprintf("%s/workers=%d/batch=%d/confirm=%v", strategy, workers, batch, confirm)
					t.Run(name, func(t *testing.T) {
						releaseAtAnyStep(t, corpus, func() Options {
							opts := fx.opts
							opts.Strategy, _ = guidance.ByName(strategy) // a fresh instance: Hybrid keeps state
							opts.Workers, opts.BatchSize, opts.ConfirmEvery, opts.Budget = workers, batch, confirm, 24
							return opts
						})
					})
				}
			}
		}
	}
}

// releaseAtAnyStep runs one arm of TestReleaseAtAnyStepIsExact.
func releaseAtAnyStep(t *testing.T, corpus func() *synth.Corpus, opts func() Options) {
	const ingestAt, handOffAt = 2, 3
	c := corpus()
	s, held := NewSession(c.DB, opts()), NewSession(corpus().DB, opts())
	users := []*sim.Erroneous{sim.NewErroneous(c.Truth, 0.2, 7104), sim.NewErroneous(c.Truth, 0.2, 7104)}
	pick := stats.NewRNG(7105)
	same := func(at string) {
		t.Helper()
		if s.opts.BatchSize < 2 && pick.Bernoulli(0.5) {
			assertSameState(t, at, s, held) // ranks both
		}
		if !reflect.DeepEqual(s.TranscriptTail(0), held.TranscriptTail(0)) || *s.rng != *held.rng {
			t.Fatalf("%s: transcript or session RNG diverged", at)
		}
		for c := 0; c < s.DB.NumClaims; c++ {
			if math.Float64bits(s.State.P(c)) != math.Float64bits(held.State.P(c)) {
				t.Fatalf("%s: P(%d) diverged", at, c)
			}
		}
		if !bytes.Equal(imageLessGainEntries(s), imageLessGainEntries(held)) {
			t.Fatalf("%s: images less gain entries diverged (epochs included)", at)
		}
	}
	released := 0
	for step := 0; !s.Done(); step++ {
		at := fmt.Sprintf("step %d", step)
		same(at)
		if pick.Bernoulli(0.75) || step == handOffAt {
			s.Release()
			if released++; !s.DB.BaseReleased() {
				t.Fatalf("%s: released, the session holds its base", at)
			}
		}
		switch step {
		case ingestAt:
			d := synth.GenerateDelta(synth.Wikipedia.Scaled(0.4).At(s.DB.Stats()), 0.05, 7103)
			for i, x := range []*Session{s, held} {
				if _, err := x.Ingest(d); err != nil {
					t.Fatalf("%s: ingest: %v", at, err)
				}
				users[i].Truth = append(users[i].Truth, d.Truth...)
			}
		case handOffAt:
			r, err := RestoreSession(corpus().DB, opts(), s.Snapshot())
			if err != nil {
				t.Fatalf("%s: restore of a released session: %v", at, err)
			}
			if !r.Restored().Image {
				t.Fatalf("%s: restore of a released session took %+v, want the image", at, r.Restored())
			}
			s = r
		}
		if s.Step(users[0]) != held.Step(users[1]) {
			t.Fatalf("%s: one session is done, the other not", at)
		}
	}
	same("done")
	s.Release()
	if got, want := s.ConfirmationCheck(users[0]), held.ConfirmationCheck(users[1]); !reflect.DeepEqual(got, want) {
		t.Fatalf("the released session's check found %+v, the twin's %+v", got, want)
	}
	same("checked")
	if released < 3 {
		t.Fatalf("released at %d boundaries; the test needs more", released)
	}
}

// TestReleasedEntriesRescoreExactly: a finished session's released gain
// entries are re-scored to the bit. The one way they could be read
// again is a restore under a budget its transcript has not spent
// (Budget is no part of the configuration fingerprint): an ingest into
// a finished session ranks only new claims, in components the ingest
// dirtied. A community-corpus session finished by its budget and
// re-opened so ranks by re-scoring every candidate, as a restore of its
// image from before Done ranks from the entries that image carries. The
// finished session is released as the serving layer releases one.
func TestReleasedEntriesRescoreExactly(t *testing.T) {
	corpus := communityCorpus(t, 71)
	opts := fastOpts(101)
	opts.CandidatePool = 12
	s := NewSession(corpus.DB, opts)
	oracle := &sim.Oracle{Truth: corpus.Truth}
	const answers = 7 // the last answer leaves clean components' entries
	for range answers {
		s.Step(oracle)
	}
	snap := s.Snapshot()
	spent := opts
	spent.Budget = answers
	finished, err := RestoreSession(corpus.DB, spent, snap)
	if err != nil {
		t.Fatal(err)
	}
	finished.Release()
	if !finished.Done() || !bytes.Equal(finished.Image(), imageLessGainEntries(s)) {
		t.Fatalf("restored under a spent budget: done %v, image less the writer's gain entries %v",
			finished.Done(), bytes.Equal(finished.Image(), imageLessGainEntries(s)))
	}
	released, err := RestoreSession(corpus.DB, opts, finished.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	cached, err := RestoreSession(corpus.DB, opts, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !released.Restored().Image || !cached.Restored().Image || released.Done() {
		t.Fatalf("re-opened %+v and %+v, done %v; want both by image, not done", released.Restored(), cached.Restored(), released.Done())
	}
	assertSameState(t, "re-opened", released, cached)
	if cached.GainCache().Hits() == 0 || released.GainCache().Hits() != 0 {
		t.Fatalf("the ranking hit the cache %d times from the image with entries and %d from the released one; want some and none",
			cached.GainCache().Hits(), released.GainCache().Hits())
	}
}

// TestDoneSessionDoesNoWork: on a Done session — its budget spent, or
// every claim labelled — Step records nothing and reports done, Pending
// names no claim and Answer refuses every claim with ErrDone, all
// without a scoring round or a sampling entry: the image bytes, which
// carry every RNG position, do not move, and the base of a released
// session, which both would regenerate, stays released.
func TestDoneSessionDoesNoWork(t *testing.T) {
	for _, budget := range []int{12, 0} {
		corpus := func() *synth.Corpus { return smallCorpus(t, 51) }
		c := regenerable(corpus(), corpus)
		opts := fastOpts(52)
		opts.Budget = budget
		s := NewSession(c.DB, opts)
		user := &sim.Oracle{Truth: c.Truth}
		s.Run(user)
		s.Release()
		if !s.Done() || !s.DB.BaseReleased() {
			t.Fatalf("budget %d: ran to done %v, base released %v", budget, s.Done(), s.DB.BaseReleased())
		}
		n, img := s.TranscriptLen(), s.Image()
		if !s.Step(user) {
			t.Errorf("budget %d: Step on a done session reports not done", budget)
		}
		if r, err := s.Pending(0); len(r) != 0 || err != nil {
			t.Errorf("budget %d: Pending on a done session = %v, %v; want no claim", budget, r, err)
		}
		for _, claim := range []int{0, c.DB.NumClaims - 1} {
			if err := s.Answer(claim, true, true); !errors.Is(err, ErrDone) {
				t.Errorf("budget %d: Answer(%d) on a done session = %v, want ErrDone", budget, claim, err)
			}
		}
		if s.TranscriptLen() != n || len(s.History()) != s.State.NumLabeled() {
			t.Errorf("budget %d: a done session recorded %d elicitations", budget, s.TranscriptLen()-n)
		}
		if !bytes.Equal(s.Image(), img) || !s.DB.BaseReleased() {
			t.Errorf("budget %d: a done session worked: image moved %v, base released %v",
				budget, !bytes.Equal(s.Image(), img), s.DB.BaseReleased())
		}
	}
}

// TestConfirmationCheckReleasesAgain: the §5.2 check on a released
// Done session samples, which builds the sampler tables and regenerates
// the base; released again, the session holds neither. Its result, and
// the session after it, equal those of a twin nobody releases.
func TestConfirmationCheckReleasesAgain(t *testing.T) {
	corpus := func() *synth.Corpus { return smallCorpus(t, 41) }
	opts := fastOpts(42)
	opts.Budget = 12
	c := regenerable(corpus(), corpus)
	s, held := NewSession(c.DB, opts), NewSession(corpus().DB, opts)
	user := sim.NewErroneous(c.Truth, 0.3, 43) // wrong answers, so the check flags some
	s.Run(user)
	held.Run(sim.NewErroneous(c.Truth, 0.3, 43))
	s.Release()
	if !s.Done() || !s.DB.BaseReleased() {
		t.Fatalf("ran to done %v: base released %v", s.Done(), s.DB.BaseReleased())
	}
	got := s.ConfirmationCheck(&sim.Oracle{Truth: c.Truth})
	want := held.ConfirmationCheck(&sim.Oracle{Truth: c.Truth})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the releasing session's check found %+v, the holding twin's %+v", got, want)
	}
	if len(got.Flagged) == 0 {
		t.Fatal("the check flagged nothing; the test needs a check that samples and re-elicits")
	}
	if s.DB.BaseReleased() || !s.Done() {
		t.Fatalf("after the check: done %v, base released %v; want the base regenerated", s.Done(), s.DB.BaseReleased())
	}
	s.Release()
	if !s.DB.BaseReleased() {
		t.Fatal("released again, the session holds its base")
	}
	assertSameState(t, "checked", s, held)
}

// finishedRestoreCeiling bounds, in bytes, what RestoreSession allocates
// to revive by image the released finished session of
// TestFinishedRestoreBuildsNoTable: 4 904 measured on amd64, plus 10 %.
// A restore that decodes gain entries (an image written before Release)
// allocates about 6.6 KB, and one that builds the run table about
// 49 KB.
const finishedRestoreCeiling = 5_400

// TestFinishedRestoreBuildsNoTable: reviving a released finished
// session by image builds no sampler table and decodes no gain entry,
// which shows in the bytes the restore allocates (runtime.MemStats.TotalAlloc on one goroutine; the least of
// three restores after a warm-up, since anything else the process
// allocates meanwhile only adds).
func TestFinishedRestoreBuildsNoTable(t *testing.T) {
	c := smallCorpus(t, 41)
	opts := fastOpts(42)
	opts.Budget = 12
	s := NewSession(c.DB, opts)
	s.Run(&sim.Oracle{Truth: c.Truth})
	s.Release()
	snap := s.Snapshot()
	restore := func() uint64 {
		db := smallCorpus(t, 41).DB
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := RestoreSession(db, opts, snap)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Restored().Image || !r.Done() {
			t.Fatalf("restored %+v, done %v; want by image, done", r.Restored(), r.Done())
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	restore()
	got := min(restore(), restore(), restore())
	t.Logf("a finished session's restore by image allocates %d B", got)
	if got > finishedRestoreCeiling {
		t.Errorf("a finished session's restore by image allocates %d B, ceiling %d B: it builds a table it does not need",
			got, finishedRestoreCeiling)
	}
}
