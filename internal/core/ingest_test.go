package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"factcheck/internal/factdb"
	"factcheck/internal/sim"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// TestIngestTraceBitIdentical is the determinism property of streaming
// ingestion: two sessions fed the identical interleaving of answers and
// corpus deltas stay bit-identical — transcript, history, marginals,
// grounding, hybrid score — and a session restored from a snapshot
// whose transcript contains ingest records replays to the same state
// and continues in lockstep. The cadence must exercise both refresh
// modes: the warm-up full sweep and the frozen-θ dirty-component path.
func TestIngestTraceBitIdentical(t *testing.T) {
	base := synth.Wikipedia.Scaled(0.4)
	mkCorpus := func() *synth.Corpus { return synth.GenerateCommunities(base, 3, 91) }
	opts := fastOpts(92)
	opts.CandidatePool = 8

	ca, cb := mkCorpus(), mkCorpus()
	a, err := OpenSession(ca.DB, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenSession(cb.DB, opts)
	if err != nil {
		t.Fatal(err)
	}

	// One oracle for both: it reads its Truth field at call time, so the
	// truth each delta appends there answers for the claims it brings.
	user := &sim.Oracle{Truth: ca.Truth}
	prof := base.At(ca.DB.Stats())

	var sawFull, sawIncremental bool
	for round, n := range []int{2, 5, 5, 5} {
		for i := 0; i < n; i++ {
			a.Step(user)
			b.Step(user)
		}
		d := synth.GenerateDelta(prof, 0.06, stats.StreamSeed(505, uint64(round)))
		wantBase := a.DB.NumClaims
		ra, err := a.Ingest(d)
		if err != nil {
			t.Fatalf("round %d: ingest a: %v", round, err)
		}
		rb, err := b.Ingest(d)
		if err != nil {
			t.Fatalf("round %d: ingest b: %v", round, err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("round %d: ingest results diverged:\n a=%+v\n b=%+v", round, ra, rb)
		}
		if ra.ClaimBase != wantBase || ra.NewClaims != d.NewClaims {
			t.Fatalf("round %d: result bases wrong: %+v (want claimBase %d)", round, ra, wantBase)
		}
		if ra.FullSweep {
			sawFull = true
		} else {
			sawIncremental = true
		}
		user.Truth = append(user.Truth, d.Truth...)
		prof = base.At(a.DB.Stats())
	}
	for i := 0; i < 3; i++ {
		a.Step(user)
		b.Step(user)
	}
	assertSessionsEqual(t, a, b)
	if a.Ingests() != 4 || b.Ingests() != 4 {
		t.Fatalf("ingest counts = %d, %d, want 4", a.Ingests(), b.Ingests())
	}
	if !sawFull || !sawIncremental {
		t.Errorf("cadence exercised only one refresh mode (full=%v incremental=%v)", sawFull, sawIncremental)
	}

	// Restore against a pristine base corpus: the transcript's ingest
	// records must regrow the database and replay every answer to a
	// bit-identical session that then continues in lockstep.
	restored, err := RestoreSession(mkCorpus().DB, opts, a.Snapshot())
	if err != nil {
		t.Fatalf("restore with ingest records: %v", err)
	}
	assertSessionsEqual(t, a, restored)
	for i := 0; i < 2; i++ {
		a.Step(user)
		restored.Step(user)
	}
	assertSessionsEqual(t, a, restored)
}

// TestIngestUnfinishesDoneSession pins the documented liveness rule:
// ingesting into a finished session is allowed, the new claims arrive
// unlabelled, and the session resumes offering candidates.
func TestIngestUnfinishesDoneSession(t *testing.T) {
	c := smallCorpus(t, 41)
	s := NewSession(c.DB, fastOpts(42))
	user := &sim.Oracle{Truth: c.Truth}
	s.Run(user)
	if s.State.NumLabeled() < s.DB.NumClaims {
		t.Fatalf("run left %d of %d claims unlabelled", s.State.NumLabeled(), s.DB.NumClaims)
	}
	if !s.Step(user) {
		t.Fatal("done session must report done from Step")
	}

	d := synth.GenerateDelta(synth.Wikipedia.Scaled(0.25).At(s.DB.Stats()), 0.1, 7)
	res, err := s.Ingest(d)
	if err != nil {
		t.Fatal(err)
	}
	user.Truth = append(user.Truth, d.Truth...)
	if s.State.NumLabeled() >= s.DB.NumClaims {
		t.Fatal("ingest did not un-finish the session")
	}
	pending, err := s.Pending(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) == 0 {
		t.Fatal("un-finished session offers no candidates")
	}
	for _, c := range pending {
		if c < res.ClaimBase {
			t.Fatalf("candidate %d predates the delta (claim base %d)", c, res.ClaimBase)
		}
	}
	before := len(s.History())
	s.Step(user)
	if len(s.History()) != before+1 || s.History()[before].Claim < res.ClaimBase {
		t.Fatalf("step after ingest did not label a new claim: %+v", s.History()[before:])
	}
}

// TestIngestInvalidDeltaLeavesSessionUnchanged pins validate-before-
// mutate: a delta that fails validation must leave the database, the
// transcript and the ingest counter exactly as they were.
func TestIngestInvalidDeltaLeavesSessionUnchanged(t *testing.T) {
	c := smallCorpus(t, 43)
	s := NewSession(c.DB, fastOpts(44))
	oracle := &sim.Oracle{Truth: c.Truth}
	for i := 0; i < 3; i++ {
		s.Step(oracle)
	}
	before := s.Snapshot()
	nc, ns, nd := s.DB.NumClaims, len(s.DB.Sources), len(s.DB.Documents)
	ncomp := s.DB.NumComponents()

	bad := factdb.Delta{NewClaims: 1, Documents: []factdb.DeltaDocument{{
		Source:   0,
		Features: make([]float64, s.DB.DocFeatureDim()),
		Refs:     []factdb.DeltaRef{{Claim: -1}, {Claim: nc + 999}},
	}}}
	if _, err := s.Ingest(bad); err == nil {
		t.Fatal("ingest accepted a delta referencing an unknown claim")
	}
	if s.DB.NumClaims != nc || len(s.DB.Sources) != ns || len(s.DB.Documents) != nd {
		t.Fatalf("failed ingest mutated the database: %d/%d/%d", s.DB.NumClaims, len(s.DB.Sources), len(s.DB.Documents))
	}
	if s.DB.NumComponents() != ncomp {
		t.Fatalf("failed ingest changed components: %d -> %d", ncomp, s.DB.NumComponents())
	}
	if !reflect.DeepEqual(before, s.Snapshot()) {
		t.Fatal("failed ingest changed the transcript")
	}
	if s.Ingests() != 0 {
		t.Fatalf("failed ingest counted: %d", s.Ingests())
	}
}

// TestRestoreRejectsZeroReferenceDocument pins what happens to a record
// stored by a build from before the flat corpus layout: those builds
// accepted a delta document that references no claim (and re-inferred
// its source's component on arrival, so dropping it on replay would not
// reproduce the trace). A document's source is now read off its first
// clique, so such a record no longer revives: restore fails with the
// validation error of the ingest record, and leaves the database it was
// given at its base shape.
func TestRestoreRejectsZeroReferenceDocument(t *testing.T) {
	c := smallCorpus(t, 47)
	opts := fastOpts(48)
	s := NewSession(c.DB, opts)
	oracle := &sim.Oracle{Truth: c.Truth}
	for i := 0; i < 2; i++ {
		s.Step(oracle)
	}
	if _, err := s.Ingest(synth.GenerateDelta(synth.Wikipedia.Scaled(0.25).At(s.DB.Stats()), 0.05, 49)); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	stored := false
	for i, e := range snap.Elicitations {
		if e.Ingest != nil {
			d := *e.Ingest
			d.Documents = append(append([]factdb.DeltaDocument(nil), d.Documents...), factdb.DeltaDocument{
				Source:   0,
				Features: make([]float64, s.DB.DocFeatureDim()),
			})
			snap.Elicitations[i].Ingest = &d
			stored = true
		}
	}
	if !stored {
		t.Fatal("snapshot holds no ingest record")
	}

	fresh := smallCorpus(t, 47).DB
	nc, ns, nd := fresh.NumClaims, len(fresh.Sources), len(fresh.Documents)
	_, err := RestoreSession(fresh, opts, snap)
	if err == nil || !strings.Contains(err.Error(), "references no claim") {
		t.Fatalf("restore of a zero-reference delta document: err = %v, want the ingest record's validation error", err)
	}
	if fresh.NumClaims != nc || len(fresh.Sources) != ns || len(fresh.Documents) != nd {
		t.Fatalf("failed restore grew the database: %d/%d/%d", fresh.NumClaims, len(fresh.Sources), len(fresh.Documents))
	}
}

// TestIngestClosedSession: a closed session rejects deltas.
func TestIngestClosedSession(t *testing.T) {
	c := smallCorpus(t, 45)
	s := NewSession(c.DB, fastOpts(46))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	d := synth.GenerateDelta(synth.Wikipedia.Scaled(0.25).At(c.DB.Stats()), 0.05, 9)
	if _, err := s.Ingest(d); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest into closed session: %v, want ErrClosed", err)
	}
}

// TestValidateDeltaShape covers enqueue-time validation against virtual
// totals, as the serving mailbox does it (database counts plus
// Delta.Counts of everything queued): a delta referencing a claim that
// only exists once the queued deltas ahead of it have applied must pass
// with the queue and fail without it.
func TestValidateDeltaShape(t *testing.T) {
	c := smallCorpus(t, 47)
	db := c.DB
	docFeat := func() []float64 { return make([]float64, db.DocFeatureDim()) }

	queued := factdb.Delta{NewClaims: 1, Documents: []factdb.DeltaDocument{{
		Source: 0, Features: docFeat(), Refs: []factdb.DeltaRef{{Claim: -1}},
	}}}
	next := factdb.Delta{Documents: []factdb.DeltaDocument{{
		Source: 0, Features: docFeat(), Refs: []factdb.DeltaRef{{Claim: db.NumClaims}},
	}}}
	nClaims, nSources := db.NumClaims, len(db.Sources)
	if err := next.Validate(nClaims, nSources, db.SourceFeatureDim(), db.DocFeatureDim()); err == nil {
		t.Fatal("next validated against the bare database")
	}
	qc, qs, _ := queued.Counts()
	if err := next.Validate(nClaims+qc, nSources+qs, db.SourceFeatureDim(), db.DocFeatureDim()); err != nil {
		t.Fatalf("next must validate against the virtual shape: %v", err)
	}
}

// Ingests returns the number of corpus deltas applied to the session.
func (s *Session) Ingests() int { return s.ingests }
