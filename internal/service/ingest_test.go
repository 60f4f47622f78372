package service

import (
	"context"
	"errors"
	"net/http"
	"path"
	"reflect"
	"testing"

	"factcheck/internal/factdb"
	"factcheck/internal/sim"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// TestServedIngestTraceBitIdenticalToLibrary extends the fidelity
// acceptance test to the streaming path: a session driven over HTTP
// with answers interleaved with corpus deltas must stay bit-identical
// — transcript, ingest records included, z, marginals — to a library
// core.Session fed the identical interleaving.
func TestServedIngestTraceBitIdenticalToLibrary(t *testing.T) {
	req := fastOpen("wiki", 0.1, 17)

	ref, corpus, err := BuildSession(req, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle := &sim.Oracle{Truth: corpus.Truth}

	client, _ := newTestServer(t, Config{Workers: 1})
	served := Script{Client: client}
	info, err := served.Open("", req)
	if err != nil {
		t.Fatal(err)
	}

	answerBoth := func(n int) {
		t.Helper()
		before := ref.Iterations()
		if st := mustAnswers(t, client, info.ID, n); st.Iterations != before+n {
			t.Fatalf("served session stands at %d iterations, want %d", st.Iterations, before+n)
		}
		for i := 0; i < n; i++ {
			ref.Step(oracle)
		}
	}
	for r := 0; r < 3; r++ {
		answerBoth(2)
		d, resp, err := served.Ingest(0.08, stats.StreamSeed(606, uint64(r)))
		if err != nil {
			t.Fatalf("round %d: served ingest: %v", r, err)
		}
		if _, err := ref.Ingest(d); err != nil {
			t.Fatalf("round %d: library ingest: %v", r, err)
		}
		if want := ref.DB.Stats(); resp.Claims != want.Claims || resp.Sources != want.Sources || resp.Documents != want.Documents {
			t.Fatalf("round %d: virtual totals %d/%d/%d, want %d/%d/%d",
				r, resp.Claims, resp.Sources, resp.Documents, want.Claims, want.Sources, want.Documents)
		}
		oracle.Truth = append(oracle.Truth, d.Truth...)
	}
	answerBoth(2) // forces a drain of any still-queued delta before comparing
	assertSameTrace(t, servedTrace(t, client, info.ID), libraryTrace(ref, oracle.Truth))
}

// TestClientIngestRoutesByPayload: Client.Ingest posts a delta that
// introduces claims to /claims and one that brings only a source and
// evidence on an existing claim to /sources.
func TestClientIngestRoutesByPayload(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	inner := NewServer(m).Handler()
	var posted []string
	s := Script{Client: &Client{HTTPClient: &http.Client{Transport: handlerTransport{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posted = append(posted, path.Base(r.URL.Path))
		}
		inner.ServeHTTP(w, r)
	})}}}}
	if _, err := s.Open("routed", fastOpen("wiki", 0.08, 73)); err != nil {
		t.Fatal(err)
	}
	withClaims, _, err := s.Ingest(0.1, 79)
	if err != nil || withClaims.NewClaims == 0 {
		t.Fatalf("generated delta: %d new claims, %v", withClaims.NewClaims, err)
	}
	claimFree := factdb.Delta{
		Sources: withClaims.Sources[:1],
		Documents: []factdb.DeltaDocument{{
			Source: -1, Features: withClaims.Documents[0].Features,
			Refs: []factdb.DeltaRef{{Claim: 0, Stance: factdb.Support}},
		}},
	}
	if _, err := s.Client.Ingest(s.ID, IngestRequest{Delta: claimFree}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"sessions", "claims", "sources"}; !reflect.DeepEqual(posted, want) {
		t.Fatalf("posted to %v, want %v", posted, want)
	}
}

// TestIngestSnapshotImportBitIdentical: a snapshot whose transcript
// contains ingest records must import into a second session that
// regrows the corpus by replay and then runs in lockstep with the
// original.
func TestIngestSnapshotImportBitIdentical(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	info, err := m.Open(fastOpen("wiki", 0.08, 23))
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, NewLocalClient(m), info.ID, 3)
	s, err := m.get(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	d := synth.GenerateDelta(synth.Wikipedia.At(s.core.DB.Stats()), 0.1, 9)
	if _, err := m.IngestCtx(context.Background(), info.ID, IngestRequest{Delta: d}); err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, NewLocalClient(m), info.ID, 2)

	snap, err := m.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	var hasIngest bool
	for _, e := range snap.Elicitations {
		hasIngest = hasIngest || e.Ingest != nil
	}
	if !hasIngest {
		t.Fatal("snapshot carries no ingest record")
	}
	if _, err := m.Import("replica", snap); err != nil {
		t.Fatalf("import with ingest records: %v", err)
	}
	assertSameTrace(t, servedTrace(t, m, "replica"), servedTrace(t, m, info.ID))
	mustAnswers(t, NewLocalClient(m), info.ID, 2)
	mustAnswers(t, NewLocalClient(m), "replica", 2)
	assertSameTrace(t, servedTrace(t, m, "replica"), servedTrace(t, m, info.ID))
}

// TestCrashRecoveryWithIngestBitIdentical extends the durability
// acceptance test to streaming arrivals: a manager is abandoned without
// shutdown after answers and an applied corpus delta, a fresh manager
// over the same directory replays checkpoint + WAL (ingest records
// included), and the resumed run stays bit-identical to an
// uninterrupted reference run fed the same interleaving.
func TestCrashRecoveryWithIngestBitIdentical(t *testing.T) {
	req := fastOpen("wiki", 0.08, 29)
	corpus, err := BuildCorpus(req)
	if err != nil {
		t.Fatal(err)
	}
	d := synth.GenerateDelta(synth.Wikipedia.At(corpus.DB.Stats()), 0.1, 31)

	drive := func(m *Manager, id string) {
		t.Helper()
		mustAnswers(t, NewLocalClient(m), id, 3)
		if _, err := m.IngestCtx(context.Background(), id, IngestRequest{Delta: d}); err != nil {
			t.Fatal(err)
		}
		// The trailing answers drain the mailbox if the apply was not
		// inline, so the delta is in the WAL before the crash.
		mustAnswers(t, NewLocalClient(m), id, 3)
	}

	ref := NewManager(Config{Workers: 1})
	defer ref.Shutdown()
	refInfo, err := ref.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	drive(ref, refInfo.ID)

	dir := t.TempDir()
	m1 := fileManager(t, dir, 3) // forces a compaction below the ingest record plus a WAL tail
	info, err := m1.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	drive(m1, info.ID)
	// No Shutdown: m1 is abandoned, as SIGKILL would leave it.

	m2 := fileManager(t, dir, 3)
	defer m2.Shutdown()
	if n, err := m2.RecoverAll(); err != nil || n != 1 {
		t.Fatalf("RecoverAll = %d, %v", n, err)
	}
	st, err := m2.State(info.ID, false)
	if err != nil {
		t.Fatalf("recovered session unavailable: %v", err)
	}
	if st.Claims != corpus.DB.NumClaims+d.NewClaims {
		t.Fatalf("recovered corpus has %d claims, want %d", st.Claims, corpus.DB.NumClaims+d.NewClaims)
	}
	assertSameTrace(t, servedTrace(t, m2, info.ID), servedTrace(t, ref, refInfo.ID))

	// The recovered session keeps serving — including ingested claims.
	mustAnswers(t, NewLocalClient(m2), info.ID, 2)
	mustAnswers(t, NewLocalClient(ref), refInfo.ID, 2)
	assertSameTrace(t, servedTrace(t, m2, info.ID), servedTrace(t, ref, refInfo.ID))
}

// TestIngestMailboxBackpressure pins the bounded-mailbox contract: with
// the session lock held (a busy session), arrivals queue rather than
// apply; a full mailbox refuses the next delta with ErrMailboxFull; and
// the queue drains before the next worker-holding request's work.
func TestIngestMailboxBackpressure(t *testing.T) {
	m := NewManager(Config{Workers: 1, MailboxCap: 1})
	defer m.Shutdown()
	info, err := m.Open(fastOpen("wiki", 0.08, 37))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.get(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	baseClaims := s.core.DB.NumClaims
	d1 := synth.GenerateDelta(synth.Wikipedia.At(s.core.DB.Stats()), 0.1, 41)
	d2 := synth.GenerateDelta(synth.Wikipedia.At(s.core.DB.Stats(), d1), 0.1, 43)

	s.mu.Lock() // the session is "busy": opportunistic apply must not run
	resp, err := m.IngestCtx(context.Background(), info.ID, IngestRequest{Delta: d1})
	if err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	if resp.Applied || resp.Queued != 1 {
		s.mu.Unlock()
		t.Fatalf("busy-session ingest = %+v, want queued", resp)
	}
	_, err = m.IngestCtx(context.Background(), info.ID, IngestRequest{Delta: d2})
	s.mu.Unlock()
	if !errors.Is(err, ErrMailboxFull) {
		t.Fatalf("full mailbox accepted a delta: %v", err)
	}

	// The next ranking drains the queue: the corpus grows and the
	// refused delta is welcome again.
	if _, err := m.NextCtx(context.Background(), info.ID, 1); err != nil {
		t.Fatal(err)
	}
	st, err := m.State(info.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Claims != baseClaims+d1.NewClaims {
		t.Fatalf("drained corpus has %d claims, want %d", st.Claims, baseClaims+d1.NewClaims)
	}
	resp, err = m.IngestCtx(context.Background(), info.ID, IngestRequest{Delta: d2})
	if err != nil {
		t.Fatalf("retry after drain: %v", err)
	}
	if !resp.Applied {
		t.Fatalf("uncontended retry not applied inline: %+v", resp)
	}
}

// TestIngestQueuedValidatesAgainstVirtualShape: a delta referencing a
// claim that exists only once the delta queued ahead of it applies must
// validate at enqueue time (virtual totals), and both must drain
// cleanly — apply-time failure is impossible by induction.
func TestIngestQueuedValidatesAgainstVirtualShape(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	info, err := m.Open(fastOpen("wiki", 0.08, 47))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.get(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	base := s.core.DB.NumClaims
	docFeat := make([]float64, s.docDim)
	first := factdb.Delta{
		NewClaims: 1,
		Truth:     []bool{true},
		Documents: []factdb.DeltaDocument{{Source: 0, Features: docFeat, Refs: []factdb.DeltaRef{{Claim: -1}}}},
	}
	// References the claim `first` introduces, by its future global id.
	second := factdb.Delta{
		Documents: []factdb.DeltaDocument{{Source: 0, Features: docFeat, Refs: []factdb.DeltaRef{{Claim: base}}}},
	}

	s.mu.Lock()
	if _, err := m.IngestCtx(context.Background(), info.ID, IngestRequest{Delta: second}); err == nil {
		s.mu.Unlock()
		t.Fatal("delta referencing a not-yet-applied claim validated against the bare corpus")
	}
	if _, err := m.IngestCtx(context.Background(), info.ID, IngestRequest{Delta: first}); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	resp, err := m.IngestCtx(context.Background(), info.ID, IngestRequest{Delta: second})
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("virtual-shape validation rejected a valid chained delta: %v", err)
	}
	if resp.Applied || resp.Queued != 2 {
		t.Fatalf("chained ingest = %+v, want 2 queued", resp)
	}
	if _, err := m.NextCtx(context.Background(), info.ID, 1); err != nil {
		t.Fatalf("drain of chained deltas failed: %v", err)
	}
	st, err := m.State(info.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Claims != base+1 {
		t.Fatalf("corpus has %d claims after chained drain, want %d", st.Claims, base+1)
	}
}

// TestIngestRejectsMalformedRequests covers the request-level guards:
// empty deltas and truth vectors not matching the new-claim count are
// refused before touching the session.
func TestIngestRejectsMalformedRequests(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	info, err := m.Open(fastOpen("wiki", 0.08, 53))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.IngestCtx(context.Background(), info.ID, IngestRequest{}); err == nil {
		t.Fatal("empty delta accepted")
	}
	d := synth.GenerateDelta(synth.Wikipedia.At(mustCorpus(t, fastOpen("wiki", 0.08, 53)).DB.Stats()), 0.1, 3)
	d.Truth = d.Truth[:len(d.Truth)-1]
	if _, err := m.IngestCtx(context.Background(), info.ID, IngestRequest{Delta: d}); err == nil {
		t.Fatal("truth/claims mismatch accepted")
	}
	if _, err := m.IngestCtx(context.Background(), "nope", IngestRequest{Delta: synth.GenerateDelta(synth.Wikipedia, 0.01, 5)}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown session: %v, want ErrNotFound", err)
	}
}

func mustCorpus(t *testing.T, req OpenRequest) *synth.Corpus {
	t.Helper()
	c, err := BuildCorpus(req)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestIngestSeqTolerance: server-side ingestion commits transcript
// records the client cannot have seen, so an answer declaring the
// sequence from before an ingest must still apply — while a sequence
// stale by an actual answer keeps the conflict semantics.
func TestIngestSeqTolerance(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	info, err := m.Open(fastOpen("wiki", 0.08, 59))
	if err != nil {
		t.Fatal(err)
	}
	next, err := m.NextCtx(context.Background(), info.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.get(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := m.IngestCtx(context.Background(), info.ID, IngestRequest{Delta: synth.GenerateDelta(synth.Wikipedia.At(s.core.DB.Stats()), 0.1, 61)})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Applied {
		t.Fatalf("uncontended ingest not applied: %+v", resp)
	}
	// The ingest re-ranked, so ask for the current expected claim — but
	// declare the sequence read before the ingest committed.
	after, err := m.NextCtx(context.Background(), info.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := next.Seq // stale by exactly one ingest record
	if _, err := m.AnswerCtx(context.Background(), info.ID, AnswerRequest{Claim: after.Candidates[0].Claim, Oracle: true, Seq: &seq}); err != nil {
		t.Fatalf("ingest-stale sequence bounced: %v", err)
	}
	// Stale by an answer: conflict.
	next2, err := m.NextCtx(context.Background(), info.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AnswerCtx(context.Background(), info.ID, AnswerRequest{Claim: next2.Candidates[0].Claim, Oracle: true, Seq: &seq}); !errors.Is(err, ErrSeq) {
		t.Fatalf("answer-stale sequence: %v, want ErrSeq", err)
	}
}

// TestExportDrainsMailbox: acknowledged arrivals still queued in the
// mailbox must be folded into the exported snapshot, not dropped with
// the live copy.
func TestExportDrainsMailbox(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	info, err := m.Open(fastOpen("wiki", 0.08, 67))
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, NewLocalClient(m), info.ID, 1)
	s, err := m.get(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	d := synth.GenerateDelta(synth.Wikipedia.At(s.core.DB.Stats()), 0.1, 71)

	s.mu.Lock()
	resp, err := m.IngestCtx(context.Background(), info.ID, IngestRequest{Delta: d})
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied {
		t.Fatalf("ingest under a held lock applied inline: %+v", resp)
	}
	snap, err := m.Export(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	last := snap.Elicitations[len(snap.Elicitations)-1]
	if last.Ingest == nil {
		t.Fatal("export dropped the queued delta")
	}
	if !reflect.DeepEqual(*last.Ingest, d) {
		t.Fatal("exported ingest record does not match the queued delta")
	}
}
