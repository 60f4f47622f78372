package core

import (
	"bytes"
	"errors"
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
// writes once it has released the cache (settle).
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

// TestReleaseAtDoneIsExact: a session that drops its sampler tables,
// its database's regenerable base and its gain cache's entries whenever
// it is Done — run to Done, a delta ingested, which regenerates the
// base, run to Done again — stays equal to the same session holding all
// three throughout (HoldTables) and to its transcript's replay:
// transcript, ranking, posteriors, gain-cache epochs, and image bytes,
// which while Done are the twin's less its gain entries. After the
// ingest the released session re-scores from an empty cache what the
// twin may serve from its own, and ranks the same. It is released
// exactly while it is Done, also after reads (state, image, a no-op
// Step, Pending) and after a restore by image or by replay, and those
// reads, the transcript's applied delta included, regenerate no base;
// the budget arm ingests into a session whose budget is spent, which
// stays Done: the ingest samples, and releases again, keeping the
// delta's rows as its tail.
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
			held.HoldTables()
			user := &sim.Oracle{Truth: c.Truth}

			check := func(at string) {
				t.Helper()
				if s.Released() != s.Done() || s.DB.BaseReleased() != s.Done() || held.Released() || held.DB.BaseReleased() {
					t.Fatalf("%s: done %v, released %v, base released %v; the holding twin released %v, %v",
						at, s.Done(), s.Released(), s.DB.BaseReleased(), held.Released(), held.DB.BaseReleased())
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
				if !s.Step(user) || !held.Step(user) || !s.Released() || !s.DB.BaseReleased() {
					t.Fatalf("%s: a no-op Step rebuilt the tables or the base, or reported not done", at)
				}
				for _, snap := range []Snapshot{s.Snapshot(), {Version: SnapshotVersion, Elicitations: s.TranscriptTail(0)}} {
					if !s.DB.BaseReleased() {
						t.Fatalf("%s: reading the transcript regenerated the base", at)
					}
					r, err := RestoreSession(regenerable(corpus(), corpus).DB, opts, snap)
					if err != nil {
						t.Fatalf("%s: restore: %v", at, err)
					}
					if r.Restored().Image != (snap.Image != nil) || !r.Released() || !r.DB.BaseReleased() {
						t.Fatalf("%s: restored %+v, released %v, base released %v", at, r.Restored(), r.Released(), r.DB.BaseReleased())
					}
					// assertSameState ranks r, as s has ranked, and compares the
					// images less the gain cache, where s may keep the entries
					// of a ranking an ingest discarded; from s's image, r has
					// them too.
					assertSameState(t, at, r, s)
					if snap.Image != nil && !bytes.Equal(r.Image(), s.Image()) || !r.Released() || !r.DB.BaseReleased() {
						t.Fatalf("%s: restored (image %v): image bytes diverged or tables rebuilt (released %v)",
							at, snap.Image != nil, r.Released())
					}
				}
			}

			s.Run(user)
			held.Run(user)
			check("finished")
			d := synth.GenerateDelta(synth.Wikipedia.Scaled(0.25).At(s.DB.Stats()), 0.1, stats.StreamSeed(43, 0))
			for _, x := range []*Session{s, held} {
				if _, err := x.Ingest(d); err != nil {
					t.Fatal(err)
				}
			}
			user.Truth = append(user.Truth, d.Truth...)
			check("ingested")
			s.Run(user)
			held.Run(user)
			check("finished again")
		})
	}
}

// TestReleasedEntriesRescoreExactly: a finished session's released gain
// entries are re-scored to the bit. The one way they could be read
// again is a restore under a budget its transcript has not spent
// (Budget is no part of the configuration fingerprint): an ingest into
// a finished session ranks only new claims, in components the ingest
// dirtied. A community-corpus session finished by its budget and
// re-opened so ranks by re-scoring every candidate, as a restore of its
// image from before Done ranks from the entries that image carries.
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
// without a scoring round: the image bytes, which carry every RNG
// position, do not move, and the sampler tables stay released.
func TestDoneSessionDoesNoWork(t *testing.T) {
	for _, budget := range []int{12, 0} {
		c := smallCorpus(t, 51)
		opts := fastOpts(52)
		opts.Budget = budget
		s := NewSession(c.DB, opts)
		user := &sim.Oracle{Truth: c.Truth}
		s.Run(user)
		if !s.Done() || !s.Released() {
			t.Fatalf("budget %d: ran to done %v, released %v", budget, s.Done(), s.Released())
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
		if !bytes.Equal(s.Image(), img) || !s.Released() {
			t.Errorf("budget %d: a done session worked: image moved %v, released %v",
				budget, !bytes.Equal(s.Image(), img), s.Released())
		}
	}
}

// TestConfirmationCheckReleasesAgain: the §5.2 check on a Done session
// samples, which builds the sampler tables and regenerates the base;
// the check then releases both again. Its result, and the session after
// it, equal those of a twin that never releases (HoldTables).
func TestConfirmationCheckReleasesAgain(t *testing.T) {
	corpus := func() *synth.Corpus { return smallCorpus(t, 41) }
	opts := fastOpts(42)
	opts.Budget = 12
	c := regenerable(corpus(), corpus)
	s, held := NewSession(c.DB, opts), NewSession(corpus().DB, opts)
	held.HoldTables()
	user := sim.NewErroneous(c.Truth, 0.3, 43) // wrong answers, so the check flags some
	s.Run(user)
	held.Run(sim.NewErroneous(c.Truth, 0.3, 43))
	if !s.Released() || !s.DB.BaseReleased() {
		t.Fatalf("ran to done %v: released %v, base released %v", s.Done(), s.Released(), s.DB.BaseReleased())
	}
	got := s.ConfirmationCheck(&sim.Oracle{Truth: c.Truth})
	want := held.ConfirmationCheck(&sim.Oracle{Truth: c.Truth})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the releasing session's check found %+v, the holding twin's %+v", got, want)
	}
	if len(got.Flagged) == 0 {
		t.Fatal("the check flagged nothing; the test needs a check that samples and re-elicits")
	}
	if !s.Released() || !s.DB.BaseReleased() || !s.Done() {
		t.Fatalf("after the check: done %v, released %v, base released %v", s.Done(), s.Released(), s.DB.BaseReleased())
	}
	assertSameState(t, "checked", s, held)
}

// finishedRestoreCeiling bounds, in bytes, what RestoreSession allocates
// to revive by image the finished session of
// TestFinishedRestoreBuildsNoTable: 6 744 measured on amd64, plus 10 %.
// A restore that builds the run table and releases it at once
// allocates about 49 KB.
const finishedRestoreCeiling = 7_400

// TestFinishedRestoreBuildsNoTable: reviving a finished session by image
// builds no sampler table, which shows in the bytes the restore
// allocates (runtime.MemStats.TotalAlloc on one goroutine; the least of
// three restores after a warm-up, since anything else the process
// allocates meanwhile only adds).
func TestFinishedRestoreBuildsNoTable(t *testing.T) {
	c := smallCorpus(t, 41)
	opts := fastOpts(42)
	opts.Budget = 12
	s := NewSession(c.DB, opts)
	s.Run(&sim.Oracle{Truth: c.Truth})
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
		if !r.Restored().Image || !r.Released() {
			t.Fatalf("restored %+v, released %v; want by image, released", r.Restored(), r.Released())
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
