package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"factcheck/internal/factdb"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// scribe is the user of TestTranscriptRebuiltFromTables: an oracle that
// skips now and then and writes down every elicitation it is put
// through, the way the session's transcript should.
type scribe struct {
	s     *Session
	truth *[]bool
	rng   *stats.RNG
	log   *[]Elicitation
}

func (u *scribe) Validate(c int) (bool, bool) {
	e := Elicitation{Claim: c, Degraded: u.s.LastRankingDegraded()}
	if u.rng.Float64() >= 0.2 {
		e.Verdict, e.OK = (*u.truth)[c], true
	}
	*u.log = append(*u.log, e)
	return e.Verdict, e.OK
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTranscriptRebuiltFromTables is the exactness property of keeping
// an applied delta in the tables alone, and of the served protocol
// (Answer) keeping its state in the transcript. On the three
// golden-trace shapes a seeded schedule interleaves answers, skips,
// rankings peeked and then discarded by an arrival, degraded iterations,
// generated deltas and served responses — answers, first skips, double
// skips, and arrivals between a skip and its answer — while the test
// keeps the transcript the old way: every elicitation as asked, every
// delta as handed to Ingest. After every operation the session, which
// by then holds none of the payloads, must produce that very
// transcript: Snapshot and TranscriptTail byte-for-byte once encoded,
// the running digest equal to the digest of the originals — and a
// session restored from the snapshot, by image and by replay, must hold
// the same transcript, pending ranking and posteriors again. A snapshot
// taken while a skip is pending carries no image, so both restore by
// replay.
func TestTranscriptRebuiltFromTables(t *testing.T) {
	connected := synth.Wikipedia.Scaled(0.4)
	communities := synth.Wikipedia.Scaled(0.8)
	shapes := []struct {
		name string
		base synth.Profile
		gen  func() *synth.Corpus
		opts Options
	}{ // the sessions of checkGolden
		{"connected", connected, func() *synth.Corpus { return synth.Generate(connected, 3101) },
			Options{Seed: 3102, Workers: 1}},
		{"communities", communities, func() *synth.Corpus { return synth.GenerateCommunities(communities, 12, 3201) },
			Options{Seed: 3202, Workers: 2, FullSweepEvery: 16}},
		{"ingest", communities, func() *synth.Corpus { return synth.GenerateCommunities(communities, 12, 3301) },
			Options{Seed: 3302, Workers: 1, FullSweepEvery: 16, CandidatePool: 16}},
	}
	const ops = 20
	// What the schedules exercised of the served protocol, over all shapes.
	var midSkip, ingestMidSkip, doubleSkip, answers int
	for si, sh := range shapes {
		rng := stats.NewRNG(int64(8800 + si))
		corpus := sh.gen()
		s, err := OpenSession(corpus.DB, sh.opts)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		truth := append([]bool(nil), corpus.Truth...)
		var want []Elicitation
		user := &scribe{s: s, truth: &truth, rng: rng, log: &want}
		deltas := 0
		for op := 0; op < ops; op++ {
			at := fmt.Sprintf("%s op %d", sh.name, op)
			if rng.Float64() < 0.3 {
				if _, err := s.Pending(0); err != nil { // a ranking the next arrival throws away
					t.Fatalf("%s: %v", at, err)
				}
			}
			switch x := rng.Float64(); {
			case op == 1 || x < 0.3:
				if s.skipped {
					ingestMidSkip++
				}
				d := synth.GenerateDelta(sh.base.At(s.DB.Stats()), 0.03, stats.StreamSeed(uint64(sh.opts.Seed), uint64(op)))
				if _, err := s.Ingest(d); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				truth = append(truth, d.Truth...)
				want = append(want, Elicitation{Ingest: &d})
				deltas++
			case x < 0.55:
				s.SetDegraded(rng.Float64() < 0.15)
				s.Step(user)
				s.SetDegraded(false)
			default: // a served response to the claim the session asks about
				s.SetDegraded(rng.Float64() < 0.15)
				top, err := s.Pending(1)
				if err != nil || len(top) == 0 {
					t.Fatalf("%s: pending %v, %v", at, top, err)
				}
				e := Elicitation{Claim: top[0], Degraded: s.LastRankingDegraded()}
				if rng.Float64() < 0.5 {
					if s.skipped {
						doubleSkip++
					}
				} else {
					e.Verdict, e.OK = truth[e.Claim], true
					answers++
				}
				if err := s.Answer(e.Claim, e.Verdict, e.OK); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				want = append(want, e)
				s.SetDegraded(false)
			}

			for i, r := range s.elog {
				if (r.arrival != nil) != (want[i].Ingest != nil) {
					t.Fatalf("%s: record %d is held as %+v", at, i, r)
				}
			}
			snap := s.Snapshot()
			wantJSON := mustJSON(t, want)
			if got := mustJSON(t, snap.Elicitations); !bytes.Equal(got, wantJSON) {
				t.Fatalf("%s: Snapshot encodes a transcript other than the one recorded:\n got %s\nwant %s", at, got, wantJSON)
			}
			from := rng.Intn(len(want))
			if got, tail := mustJSON(t, s.TranscriptTail(from)), mustJSON(t, want[from:]); !bytes.Equal(got, tail) {
				t.Fatalf("%s: TranscriptTail(%d) differs from the recorded tail", at, from)
			}
			var digest uint64
			for _, e := range want {
				digest = digestElicitation(digest, e)
			}
			if s.digest != digest {
				t.Fatalf("%s: running digest %#x, the recorded transcript digests to %#x", at, s.digest, digest)
			}

			if (snap.Image == nil) != s.skipped {
				t.Fatalf("%s: a snapshot with a skip pending %v carries an image of %d bytes", at, s.skipped, len(snap.Image))
			}
			if s.skipped {
				midSkip++
			}
			for _, image := range []bool{true, false} {
				from := snap
				if !image {
					from.Image = nil
				}
				r, err := RestoreSession(sh.gen().DB, sh.opts, from)
				if err != nil {
					t.Fatalf("%s: restore (image %v): %v", at, image, err)
				}
				if got := r.Restored(); got.Image != (image && snap.Image != nil) {
					t.Fatalf("%s: restore took %+v, want image %v", at, got, image)
				}
				if got := mustJSON(t, r.Snapshot().Elicitations); !bytes.Equal(got, wantJSON) {
					t.Fatalf("%s: the session restored (image %v) holds another transcript", at, image)
				}
				if r.digest != digest {
					t.Fatalf("%s: the session restored (image %v) digests its transcript to %#x, want %#x", at, image, r.digest, digest)
				}
				assertSameState(t, fmt.Sprintf("%s (image %v)", at, image), r, s)
			}
		}
		if deltas < 2 {
			t.Fatalf("%s: the schedule ingested %d deltas", sh.name, deltas)
		}
	}
	t.Logf("exercised: %d restores mid-skip, %d deltas mid-skip, %d double skips, %d served answers", midSkip, ingestMidSkip, doubleSkip, answers)
	if midSkip == 0 || ingestMidSkip == 0 || doubleSkip == 0 || answers == 0 {
		t.Fatalf("the schedules restored %d sessions mid-skip, ingested %d deltas mid-skip, served %d double skips and %d answers",
			midSkip, ingestMidSkip, doubleSkip, answers)
	}
}

// TestIngestKeepsNoPayload: what Ingest was handed is garbage once it
// returns — the transcript keeps the delta's span and truth, and
// scribbling over the caller's copy afterwards changes nothing the
// session will ever write.
func TestIngestKeepsNoPayload(t *testing.T) {
	f := newImageFixture()
	c := f.corpus()
	s, err := OpenSession(c.DB, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	d := synth.GenerateDelta(f.base.At(s.DB.Stats()), 0.05, 7103)
	want := mustJSON(t, Elicitation{Ingest: &d})
	res, err := s.Ingest(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Sources {
		d.Sources[i].Features[0] = -1
	}
	for i := range d.Documents {
		d.Documents[i].Features[0], d.Documents[i].Refs[0] = -1, factdb.DeltaRef{Claim: 0}
	}
	r := s.elog[0]
	if r.arrival == nil {
		t.Fatalf("ingest record held as %+v", r)
	}
	if got := r.arrival.span; got.ClaimBase != res.ClaimBase || got.Claims != res.NewClaims || got.Sources != res.NewSources || got.Documents != res.NewDocuments {
		t.Fatalf("ingest record keeps span %+v for %+v", got, res)
	}
	if e, ingest := s.TranscriptAt(0); !ingest || e.Ingest != nil {
		t.Fatalf("TranscriptAt(0) = %+v, %v", e, ingest)
	}
	if got := mustJSON(t, s.TranscriptTail(0)[0]); !bytes.Equal(got, want) {
		t.Fatalf("the record encodes as\n %s\nwant\n %s", got, want)
	}
}
