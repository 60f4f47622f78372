package core

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"factcheck/internal/sim"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// TestReleaseAtDoneIsExact: a session that drops its sampler tables
// whenever it is Done — run to Done, a delta ingested, run to Done
// again — stays equal to the same session holding its tables throughout
// (HoldTables) and to its transcript's replay: transcript, ranking,
// posteriors, and image bytes. It is released exactly while it is Done,
// also after reads (state, image, a no-op Step, Pending) and after a
// restore by image or by replay; the budget arm ingests into a session
// whose budget is spent, which stays Done: the ingest samples, and
// releases again.
func TestReleaseAtDoneIsExact(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int
	}{{"exhausted", 0}, {"budget", 12}} {
		t.Run(tc.name, func(t *testing.T) {
			corpus := func() *synth.Corpus { return smallCorpus(t, 41) }
			opts := fastOpts(42)
			opts.Budget = tc.budget
			c := corpus()
			s, held := NewSession(c.DB, opts), NewSession(corpus().DB, opts)
			held.HoldTables()
			user := &sim.Oracle{Truth: c.Truth}

			check := func(at string) {
				t.Helper()
				if s.Released() != s.Done() || held.Released() {
					t.Fatalf("%s: done %v, released %v; the holding twin released %v", at, s.Done(), s.Released(), held.Released())
				}
				if !reflect.DeepEqual(s.TranscriptTail(0), held.TranscriptTail(0)) {
					t.Fatalf("%s: transcripts diverged", at)
				}
				if !bytes.Equal(s.Image(), held.Image()) {
					t.Fatalf("%s: image bytes diverged from the holding twin's", at)
				}
				assertSameState(t, at, s, held)
				if !s.Done() {
					return
				}
				if !s.Step(user) || !held.Step(user) || !s.Released() {
					t.Fatalf("%s: a no-op Step rebuilt the tables or reported not done", at)
				}
				for _, snap := range []Snapshot{s.Snapshot(), {Version: SnapshotVersion, Elicitations: s.TranscriptTail(0)}} {
					r, err := RestoreSession(corpus().DB, opts, snap)
					if err != nil {
						t.Fatalf("%s: restore: %v", at, err)
					}
					if r.Restored().Image != (snap.Image != nil) || !r.Released() {
						t.Fatalf("%s: restored %+v, released %v", at, r.Restored(), r.Released())
					}
					// assertSameState ranks r, as s has ranked, and compares the
					// images less the gain cache, where s may keep the entries
					// of a ranking an ingest discarded; from s's image, r has
					// them too.
					assertSameState(t, at, r, s)
					if snap.Image != nil && !bytes.Equal(r.Image(), s.Image()) || !r.Released() {
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
