package core

import (
	"bytes"
	"reflect"
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
// whose budget is spent, which stays Done, and ranks it, which rebuilds
// and releases again.
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
				// With every claim labelled a Step is a no-op; with the budget
				// spent it would answer past it, which no caller does.
				if s.State.NumLabeled() == s.DB.NumClaims && (!s.Step(user) || !held.Step(user) || !s.Released()) {
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
