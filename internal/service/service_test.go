package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/sim"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// fastEM keeps test inference cheap; correctness here is about the
// serving protocol, and determinism holds at any budget.
func fastEM() *EMBudgets {
	return &EMBudgets{BurnIn: 4, Samples: 8, IncBurnIn: 2, IncSamples: 4, EMIters: 1, HypoBurn: 1, HypoSamples: 2}
}

func fastOpen(profile string, scale float64, seed int64) OpenRequest {
	return OpenRequest{
		Profile:       profile,
		Scale:         scale,
		Seed:          seed,
		CandidatePool: 4,
		EM:            fastEM(),
	}
}

func newTestServer(t *testing.T, cfg Config) (*Client, *Manager) {
	t.Helper()
	m := NewManager(cfg)
	srv := httptest.NewServer(NewServer(m).Handler())
	t.Cleanup(func() { srv.Close(); m.Shutdown() })
	return NewClient(srv.URL), m
}

// sessionTrace is what the fidelity tests compare of a session: its
// transcript, its state — z, precision, labels, iterations, marginals —
// and, when the test took one, its ranking.
type sessionTrace struct {
	log  []core.Elicitation
	st   StateResponse
	rank []int
}

// servedTrace reads a served session's trace through a Manager or a
// Client.
func servedTrace(t *testing.T, c interface {
	Snapshot(id string) (SessionSnapshot, error)
	State(id string, withMarginals bool) (StateResponse, error)
}, id string) sessionTrace {
	t.Helper()
	snap, err := c.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.State(id, true)
	if err != nil {
		t.Fatal(err)
	}
	return sessionTrace{log: snap.Elicitations, st: st}
}

// libraryTrace reads an in-process session's trace the way the manager
// reports a served one, precision measured against truth.
func libraryTrace(ref *core.Session, truth []bool) sessionTrace {
	return sessionTrace{log: ref.Snapshot().Elicitations, st: (&Session{core: ref, truth: truth}).state(true)}
}

// ranking is the claim order of a served ranking.
func ranking(next NextResponse) []int {
	var out []int
	for _, c := range next.Candidates {
		out = append(out, c.Claim)
	}
	return out
}

// assertSameTrace fails unless got and want agree bit for bit:
// transcript record by record, z, precision, labels, iterations, every
// marginal, and the rankings when either side carries one.
func assertSameTrace(t *testing.T, got, want sessionTrace) {
	t.Helper()
	if len(got.log) != len(want.log) {
		t.Fatalf("transcript lengths diverged: %d vs %d", len(got.log), len(want.log))
	}
	for i := range want.log {
		// DeepEqual, not ==: ingest records hold the delta by pointer.
		if !reflect.DeepEqual(got.log[i], want.log[i]) {
			t.Fatalf("transcripts diverged at %d:\n got  %+v\n want %+v", i, got.log[i], want.log[i])
		}
	}
	g, w := got.st, want.st
	if g.Z != w.Z || g.Precision != w.Precision || g.Labeled != w.Labeled || g.Iterations != w.Iterations {
		t.Fatalf("states diverged:\n got  %+v\n want %+v", g, w)
	}
	if len(g.Marginals) != len(w.Marginals) {
		t.Fatalf("marginals cover %d claims, want %d", len(g.Marginals), len(w.Marginals))
	}
	for c, p := range w.Marginals {
		if g.Marginals[c] != p {
			t.Fatalf("marginal P(%d) diverged: %v vs %v", c, g.Marginals[c], p)
		}
	}
	if (got.rank != nil || want.rank != nil) && !slices.Equal(got.rank, want.rank) {
		t.Fatalf("rankings diverged:\n got  %v\n want %v", got.rank, want.rank)
	}
}

// TestServedTraceBitIdenticalToLibrary is the fidelity acceptance test:
// a fixed-seed session driven over HTTP with oracle answers must produce
// a selection trace — and final state — bit-identical to the in-process
// core.Session path with the same corpus, options and simulated user.
func TestServedTraceBitIdenticalToLibrary(t *testing.T) {
	req := fastOpen("wiki", 0.1, 7)

	// In-process reference path.
	ref, corpus, err := BuildSession(req, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle := &sim.Oracle{Truth: corpus.Truth}
	const steps = 6
	for i := 0; i < steps; i++ {
		ref.Step(oracle)
	}

	// Served path, same configuration, oracle-answered over HTTP.
	client, _ := newTestServer(t, Config{Workers: 2})
	info, err := client.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, client, info.ID, steps)
	next, err := client.Next(info.ID, 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	// Trace, final state and the next ranking agree bit for bit.
	got, want := servedTrace(t, client, info.ID), libraryTrace(ref, corpus.Truth)
	got.rank = ranking(next)
	if want.rank, err = ref.Pending(0); err != nil {
		t.Fatal(err)
	}
	assertSameTrace(t, got, want)
}

// TestSkipFollowsSection85 exercises the skip protocol: the first skip
// moves the question to the second-best candidate, answering it
// validates that claim, and a double skip accepts the model value.
func TestSkipFollowsSection85(t *testing.T) {
	client, _ := newTestServer(t, Config{})
	info, err := client.Open(fastOpen("wiki", 0.05, 3))
	if err != nil {
		t.Fatal(err)
	}
	next, err := client.Next(info.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	top, second := next.Candidates[0].Claim, next.Candidates[1].Claim

	st, err := client.Answer(info.ID, AnswerRequest{Claim: top, Skip: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Labeled != 0 {
		t.Fatalf("a first skip must not label anything, labeled=%d", st.Labeled)
	}
	if st.Expected != second {
		t.Fatalf("after skip the expected claim is %d, want second-best %d", st.Expected, second)
	}
	// The question moved: /next now leads with the second-best claim.
	next, err = client.Next(info.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if next.Candidates[0].Claim != second {
		t.Fatalf("next after skip returns %d, want %d", next.Candidates[0].Claim, second)
	}
	// Answering the moved question validates exactly that claim.
	st, err = client.Answer(info.ID, AnswerRequest{Claim: second, Verdict: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Labeled != 1 {
		t.Fatalf("labeled=%d after answering the fallback, want 1", st.Labeled)
	}

	// Double skip: the fallback claim is labelled with the model value.
	next, err = client.Next(info.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = client.Answer(info.ID, AnswerRequest{Claim: next.Candidates[0].Claim, Skip: true}); err != nil {
		t.Fatal(err)
	}
	st, err = client.Answer(info.ID, AnswerRequest{Claim: next.Candidates[1].Claim, Skip: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Labeled != 2 {
		t.Fatalf("labeled=%d after double skip, want 2", st.Labeled)
	}
}

// skipTop works a session for two answers, then skips the claim it
// asks about; it returns the response to the skip and the claim the
// question moved to.
func skipTop(t *testing.T, m *Manager, id string) (StateResponse, int) {
	t.Helper()
	mustAnswers(t, NewLocalClient(m), id, 2)
	next, err := m.NextCtx(context.Background(), id, 2)
	if err != nil {
		t.Fatal(err)
	}
	seq := next.Seq
	st, err := m.AnswerCtx(context.Background(), id, AnswerRequest{Claim: next.Candidates[0].Claim, Skip: true, Seq: &seq})
	if err != nil {
		t.Fatal(err)
	}
	return st, next.Candidates[1].Claim
}

// answerFallback answers the claim a skip moved the question to,
// echoing the skip's response's sequence, then two more claims.
func answerFallback(t *testing.T, m *Manager, id string, skip StateResponse, second int) {
	t.Helper()
	if _, err := m.AnswerCtx(context.Background(), id, AnswerRequest{Claim: second, Oracle: true, Seq: &skip.Seq}); err != nil {
		t.Fatalf("answering the second-best claim %d: %v", second, err)
	}
	mustAnswers(t, NewLocalClient(m), id, 2)
}

// TestPendingSkipSurvivesLeavingMemory: a first skip is a transcript
// record, so it survives every way a session leaves memory — an idle
// spill and its revival, export → import into another manager, and a
// new manager over the FileStore directory of one abandoned mid-skip.
// After each, answering the second-best claim is accepted, and the
// transcript and marginals equal those of a twin that never left
// memory.
func TestPendingSkipSurvivesLeavingMemory(t *testing.T) {
	req := fastOpen("wiki", 0.05, 3)
	ref := NewManager(Config{Workers: 1})
	defer ref.Shutdown()
	refInfo, err := ref.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	refSkip, refSecond := skipTop(t, ref, refInfo.ID)
	answerFallback(t, ref, refInfo.ID, refSkip, refSecond)

	live := func(t *testing.T) *Manager {
		m := NewManager(Config{Workers: 1})
		t.Cleanup(m.Shutdown)
		return m
	}
	var dir string
	ways := []struct {
		name  string
		open  func(t *testing.T) *Manager                        // the manager the session is opened on
		leave func(t *testing.T, m *Manager, id string) *Manager // the manager that serves it afterwards
	}{
		{"spill", live, func(t *testing.T, m *Manager, id string) *Manager {
			spill(t, m, 1)
			return m
		}},
		{"export-import", live, func(t *testing.T, m *Manager, id string) *Manager {
			snap, err := m.Export(id)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Image != nil {
				t.Error("a checkpoint cut mid-skip carries a state image")
			}
			dst := live(t)
			if _, err := dst.Import(id, snap); err != nil {
				t.Fatal(err)
			}
			return dst
		}},
		{"restart", func(t *testing.T) *Manager {
			dir = t.TempDir()
			return fileManager(t, dir, 16)
		}, func(t *testing.T, _ *Manager, _ string) *Manager {
			// The first manager is abandoned without a shutdown, as
			// SIGKILL leaves it: the skip is in its WAL and nowhere else.
			m := fileManager(t, dir, 16)
			t.Cleanup(m.Shutdown)
			return m
		}},
	}
	for _, way := range ways {
		t.Run(way.name, func(t *testing.T) {
			m := way.open(t)
			info, err := m.Open(req)
			if err != nil {
				t.Fatal(err)
			}
			skip, second := skipTop(t, m, info.ID)
			serving := way.leave(t, m, info.ID)
			answerFallback(t, serving, info.ID, skip, second)
			assertSameTrace(t, servedTrace(t, serving, info.ID), servedTrace(t, ref, refInfo.ID))
		})
	}
	// A skip is an answer request: it advances the sequence by one.
	if refSkip.Seq != 3 || refSkip.Labeled != 2 || refSkip.Expected != refSecond {
		t.Fatalf("a skip after two answers responds %+v; want seq 3, 2 labels, expected claim %d", refSkip, refSecond)
	}
}

// TestSkipDoesNotOutliveItsRanking: a corpus arrival discards the
// ranking a pending skip belongs to, and the skip with it, so /next
// serves the ranking of a session that saw only the arrival, and
// answering its head leaves no skip on record that the client did not
// make. Seed 5 is the interleaving where the arrival ranks another
// claim first (a stale skip would ask the skipped claim again and
// record a skip of the new head); the search goes on to a seed where
// it ranks the skipped claim itself first again. After each, restoring
// the transcript rebuilds the live session.
func TestSkipDoesNotOutliveItsRanking(t *testing.T) {
	ctx := context.Background()
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	var other, back bool // the arrival ranked another claim first / the skipped one
	for seed := int64(5); seed < 40 && !(other && back); seed++ {
		req := fastOpen("wiki", 0.05, seed)
		s := Script{Client: NewLocalClient(m)}
		info, err := s.Open("", req)
		if err != nil {
			t.Fatal(err)
		}
		next, err := m.NextCtx(ctx, info.ID, 2)
		if err != nil {
			t.Fatal(err)
		}
		skipped, seq := next.Candidates[0].Claim, next.Seq
		if _, err := m.AnswerCtx(ctx, info.ID, AnswerRequest{Claim: skipped, Skip: true, Seq: &seq}); err != nil {
			t.Fatal(err)
		}
		d, resp, err := s.Ingest(0.2, stats.StreamSeed(uint64(seed), 9))
		if err != nil || !resp.Applied {
			t.Fatalf("seed %d: ingest %+v, %v", seed, resp, err)
		}
		if next, err = m.NextCtx(ctx, info.ID, 1<<20); err != nil {
			t.Fatal(err)
		}
		ref, _, err := BuildSession(req, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Ingest(d); err != nil {
			t.Fatal(err)
		}
		rank, err := ref.Pending(0)
		if err != nil {
			t.Fatal(err)
		}
		if served := ranking(next); !reflect.DeepEqual(served, rank) {
			t.Fatalf("seed %d: after skipping claim %d and an arrival, /next serves %v; the arrival's ranking is %v", seed, skipped, served, rank)
		}
		back = back || rank[0] == skipped
		other = other || rank[0] != skipped

		seq = next.Seq
		if _, err := m.AnswerCtx(ctx, info.ID, AnswerRequest{Claim: rank[0], Oracle: true, Seq: &seq}); err != nil {
			t.Fatalf("seed %d: answering the head %d: %v", seed, rank[0], err)
		}
		snap, err := m.Snapshot(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		skips := 0
		for _, e := range snap.Elicitations {
			if e.Ingest == nil && !e.OK {
				if e.Claim != skipped {
					t.Fatalf("seed %d: the transcript records a skip of claim %d, which the client never skipped: %+v", seed, e.Claim, snap.Elicitations)
				}
				skips++
			}
		}
		if skips != 1 {
			t.Fatalf("seed %d: the transcript records %d skips, the client made one: %+v", seed, skips, snap.Elicitations)
		}
		if next, err = m.NextCtx(ctx, info.ID, 1<<20); err != nil {
			t.Fatal(err)
		}
		assertRestoresLive(t, m, info.ID, req, next)
	}
	if !other || !back {
		t.Fatalf("over seeds 5–39 the arrival ranked another claim first: %v, the skipped one first again: %v", other, back)
	}
}

// assertRestoresLive restores the session's snapshot in process, by
// image and by replay, and compares the result with the live session:
// transcript, state, and ranking (next, taken with k ≥ |C|).
func assertRestoresLive(t *testing.T, m *Manager, id string, req OpenRequest, next NextResponse) {
	t.Helper()
	live := servedTrace(t, m, id)
	live.rank = ranking(next)
	snap, err := m.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, image := range [][]byte{snap.Image, nil} {
		r, corpus, err := BuildSession(req, &core.Snapshot{Elicitations: snap.Elicitations, Image: image}, nil)
		if err != nil {
			t.Fatal(err)
		}
		restored := libraryTrace(r, corpus.Truth)
		if restored.rank, err = r.Pending(0); err != nil {
			t.Fatal(err)
		}
		assertSameTrace(t, live, restored)
	}
}

// TestSnapshotRestoreOverHTTP opens a session, works it, snapshots it,
// deletes it, restores it, and verifies the restored session continues
// exactly like an uninterrupted one.
func TestSnapshotRestoreOverHTTP(t *testing.T) {
	client, _ := newTestServer(t, Config{})
	req := fastOpen("wiki", 0.08, 13)

	// Uninterrupted reference: 5 oracle answers.
	refInfo, err := client.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	refState := mustAnswers(t, client, refInfo.ID, 5)
	refSnap, err := client.Snapshot(refInfo.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted path: 3 answers, snapshot, delete, restore, 2 more.
	info, err := client.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, client, info.ID, 3)
	snap, err := client.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Delete(info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.State(info.ID, false); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("deleted session should 404, got %v", err)
	}

	restored, err := client.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	got := mustAnswers(t, client, restored.ID, 2)
	if got.Labeled != refState.Labeled || got.Precision != refState.Precision || got.Z != refState.Z {
		t.Fatalf("restored session diverged: got (labeled=%d p=%v z=%v), want (labeled=%d p=%v z=%v)",
			got.Labeled, got.Precision, got.Z, refState.Labeled, refState.Precision, refState.Z)
	}
	gotSnap, err := client.Snapshot(restored.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSnap.Elicitations) != len(refSnap.Elicitations) {
		t.Fatalf("transcript lengths diverged: %d vs %d", len(gotSnap.Elicitations), len(refSnap.Elicitations))
	}
	for i := range gotSnap.Elicitations {
		if gotSnap.Elicitations[i] != refSnap.Elicitations[i] {
			t.Fatalf("transcripts diverged at %d: %+v vs %+v",
				i, gotSnap.Elicitations[i], refSnap.Elicitations[i])
		}
	}
}

func TestAPIErrorEdges(t *testing.T) {
	client, _ := newTestServer(t, Config{MaxSessions: 2})

	expectHTTP := func(err error, code string, what string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), code) {
			t.Fatalf("%s: want HTTP %s, got %v", what, code, err)
		}
	}

	// Unknown session id → 404 on every endpoint.
	_, err := client.Next("nope", 1)
	expectHTTP(err, "404", "next")
	_, err = client.State("nope", false)
	expectHTTP(err, "404", "state")
	_, err = client.Answer("nope", AnswerRequest{})
	expectHTTP(err, "404", "answer")
	_, err = client.Snapshot("nope")
	expectHTTP(err, "404", "snapshot")
	expectHTTP(client.Delete("nope"), "404", "delete")

	// Invalid configurations → 400.
	_, err = client.Open(OpenRequest{Profile: "nonesuch"})
	expectHTTP(err, "400", "bad profile")
	bad := fastOpen("wiki", 0.05, 1)
	bad.Strategy = "clairvoyance"
	_, err = client.Open(bad)
	expectHTTP(err, "400", "bad strategy")

	// A valid session, wrong-claim answers → 409.
	info, err := client.Open(fastOpen("wiki", 0.05, 2))
	if err != nil {
		t.Fatal(err)
	}
	next, err := client.Next(info.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Answer(info.ID, AnswerRequest{Claim: next.Candidates[1].Claim, Verdict: true})
	expectHTTP(err, "409", "wrong claim")

	// Budget-exhausted session rejects further answers → 409.
	one := fastOpen("wiki", 0.05, 4)
	one.Budget = 1
	binfo, err := client.Open(one)
	if err != nil {
		t.Fatal(err)
	}
	n, err := client.Next(binfo.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Answer(binfo.ID, AnswerRequest{Claim: n.Candidates[0].Claim, Oracle: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Fatal("budget-1 session should report done after one answer")
	}
	_, err = client.Answer(binfo.ID, AnswerRequest{Claim: n.Candidates[0].Claim, Oracle: true})
	expectHTTP(err, "409", "answer after done")
	n, err = client.Next(binfo.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Done {
		t.Fatal("next on a done session should report done")
	}

	// Session cap → 503 (two sessions already open).
	_, err = client.Open(fastOpen("wiki", 0.05, 5))
	expectHTTP(err, "503", "session cap")
}

func TestEvictIdleSpillsAndRevives(t *testing.T) {
	client, m := newTestServer(t, Config{})
	a, err := client.Open(fastOpen("wiki", 0.05, 6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.Open(fastOpen("wiki", 0.05, 7))
	if err != nil {
		t.Fatal(err)
	}
	before := mustAnswers(t, client, a.ID, 1)
	if n := m.EvictIdle(time.Hour); n != 0 {
		t.Fatalf("evicted %d fresh sessions", n)
	}
	// Age session a artificially, then evict: it leaves the live set
	// (and the cap) but stays serveable through the snapshot store.
	m.mu.Lock()
	m.slots[a.ID].sess.lastUsed = m.nowFn().Add(-2 * time.Hour)
	m.mu.Unlock()
	if n := m.EvictIdle(time.Hour); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	if got := m.Len(); got != 1 {
		t.Fatalf("live sessions after evict = %d, want 1", got)
	}
	if got := m.Spilled(); got != 1 {
		t.Fatalf("spilled sessions after evict = %d, want 1", got)
	}
	// The next request revives the spilled session with its state intact.
	after, err := client.State(a.ID, false)
	if err != nil {
		t.Fatalf("spilled session did not revive: %v", err)
	}
	if after.Labeled != before.Labeled || after.Z != before.Z || after.Precision != before.Precision {
		t.Fatalf("revived state diverged: got (labeled=%d z=%v p=%v), want (labeled=%d z=%v p=%v)",
			after.Labeled, after.Z, after.Precision, before.Labeled, before.Z, before.Precision)
	}
	if got := m.Len(); got != 2 {
		t.Fatalf("live sessions after revival = %d, want 2", got)
	}
	if _, err := client.State(b.ID, false); err != nil {
		t.Fatalf("fresh session evicted too: %v", err)
	}
}

// TestEvictedSessionsFreeTheCap verifies that spilled sessions stop
// counting against MaxSessions: with a cap of 1, evicting the only live
// session admits a new one, and reviving the first then hits the cap.
func TestEvictedSessionsFreeTheCap(t *testing.T) {
	client, m := newTestServer(t, Config{MaxSessions: 1})
	a, err := client.Open(fastOpen("wiki", 0.05, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Open(fastOpen("wiki", 0.05, 9)); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("cap of 1 admitted a second session: %v", err)
	}
	if n := m.EvictIdle(0); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	bID, err := client.Open(fastOpen("wiki", 0.05, 9))
	if err != nil {
		t.Fatalf("eviction did not free the session cap: %v", err)
	}
	// Reviving the spilled session would exceed the cap again.
	if _, err := client.State(a.ID, false); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("revival above the cap should 503, got %v", err)
	}
	if err := client.Delete(bID.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.State(a.ID, false); err != nil {
		t.Fatalf("revival below the cap failed: %v", err)
	}
}

// TestBudgetGrantsAndBlocks pins the elastic-lane contract: a request
// takes exactly one base lane and blocks only when every lane is held
// or lent; a section borrows what is free, and nothing while a request
// waits; returning a lane wakes the waiter; nothing leaks.
func TestBudgetGrantsAndBlocks(t *testing.T) {
	b := NewBudget(3)
	rel1 := b.Acquire()
	rel2 := b.Acquire() // a second request does not queue behind the first
	if b.InUse() != 2 || b.Waits() != 0 {
		t.Fatalf("two base lanes of three: in use %d, waits %d", b.InUse(), b.Waits())
	}
	if n := b.Borrow(5); n != 1 {
		t.Fatalf("Borrow(5) with one lane free lent %d, want 1", n)
	}
	if n := b.Borrow(1); n != 0 {
		t.Fatalf("Borrow with no lane free lent %d", n)
	}
	// Every lane held or lent: TryAcquire refuses and counts, Acquire
	// blocks and counts.
	if rel, ok := b.TryAcquire(); ok {
		t.Fatal("TryAcquire took a lent lane")
	} else {
		rel() // the refusal's release is a no-op
	}
	got := make(chan func())
	go func() { got <- b.Acquire() }()
	for b.Waits() < 2 { // counted under the lock that parks it
		runtime.Gosched()
	}
	select {
	case <-got:
		t.Fatal("third acquire should block while every lane is held or lent")
	case <-time.After(20 * time.Millisecond):
	}
	// The section ending returns its extra, which wakes the waiter.
	b.Return(1)
	var rel3 func()
	select {
	case rel3 = <-got:
	case <-time.After(time.Second):
		t.Fatal("blocked acquire never woke up")
	}
	rel1()
	rel1() // idempotent
	// One lane is free again, but a request waiting for its base lane is
	// first in line: sections are lent nothing until it has taken it. The
	// window between a release and the woken acquirer taking the lane
	// cannot be held open from outside, so a waiter is marked directly.
	b.mu.Lock()
	b.waiters++
	b.mu.Unlock()
	if n := b.Borrow(1); n != 0 {
		t.Fatalf("Borrow lent %d while a request waits for its base lane", n)
	}
	b.mu.Lock()
	b.waiters--
	b.mu.Unlock()
	if n := b.Borrow(2); n != 1 {
		t.Fatalf("Borrow(2) with one lane free and nobody waiting lent %d, want 1", n)
	}
	b.Return(1)
	rel2()
	rel3()
	if b.InUse() != 0 {
		t.Fatalf("lanes leaked: %d in use", b.InUse())
	}
	if b.Waits() != 2 {
		t.Fatalf("waits = %d, want the one refusal and the one block", b.Waits())
	}
}

// TestBuildOptionsRefusesNegativeFields: a negative numeric open field
// is refused by its JSON name, where zero selects the default, so no
// request is silently reinterpreted (a negative fullSweepEvery would
// otherwise run per-answer EM, a negative budget none at all).
func TestBuildOptionsRefusesNegativeFields(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	for field, edit := range map[string]func(*OpenRequest){
		"fullSweepEvery": func(r *OpenRequest) { r.FullSweepEvery = -1 },
		"budget":         func(r *OpenRequest) { r.Budget = -5 },
		"candidatePool":  func(r *OpenRequest) { r.CandidatePool = -3 },
		"confirmEvery":   func(r *OpenRequest) { r.ConfirmEvery = -0.5 },
		"em.burnIn":      func(r *OpenRequest) { r.EM.BurnIn = -1 },
		"em.samples":     func(r *OpenRequest) { r.EM.Samples = -4 },
		"em.incBurnIn":   func(r *OpenRequest) { r.EM.IncBurnIn = -1 },
		"em.incSamples":  func(r *OpenRequest) { r.EM.IncSamples = -1 },
		"em.emIters":     func(r *OpenRequest) { r.EM.EMIters = -1 },
		"em.hypoBurn":    func(r *OpenRequest) { r.EM.HypoBurn = -1 },
		"em.hypoSamples": func(r *OpenRequest) { r.EM.HypoSamples = -1 },
	} {
		req := fastOpen("wiki", 0.05, 1)
		edit(&req)
		if _, err := BuildOptions(req); err == nil || !strings.Contains(err.Error(), field+" is -") {
			t.Errorf("%s: BuildOptions = %v, want an error naming the field", field, err)
		}
		if _, err := m.Open(req); err == nil {
			t.Errorf("%s: the manager opened the session", field)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("%d sessions opened", m.Len())
	}
}

func TestGenerateCorpusProfileValidation(t *testing.T) {
	if _, err := BuildCorpus(OpenRequest{Profile: "wiki", Scale: -1}); err == nil {
		t.Fatal("negative scale accepted")
	}
	if _, err := BuildCorpus(OpenRequest{Profile: ""}); err == nil {
		t.Fatal("empty profile accepted")
	}
	if _, err := BuildCorpus(OpenRequest{Profile: "snopes", Scale: 1e5}); err == nil {
		t.Fatal("oversized scale accepted — one request could exhaust server memory")
	}
	c, err := BuildCorpus(OpenRequest{Profile: "wiki", Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.DB.NumClaims == 0 {
		t.Fatal("empty corpus generated")
	}
	if c.Profile.Name != synth.Wikipedia.Scaled(0.05).Name {
		t.Fatalf("unexpected profile %q", c.Profile.Name)
	}
}

// TestServedCommunityTraceMatchesLibrary extends the trace-fidelity
// guarantee to the incremental serving path: a session over a
// multi-community (multi-component) corpus, running the default
// dirty-component re-ranking cadence, must match the in-process library
// path answer for answer.
func TestServedCommunityTraceMatchesLibrary(t *testing.T) {
	req := fastOpen("wiki", 0.4, 17)
	req.Communities = 4
	req.CandidatePool = 8

	ref, corpus, err := BuildSession(req, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if corpus.DB.NumComponents() < 4 {
		t.Fatalf("community corpus has %d components, want >= 4", corpus.DB.NumComponents())
	}
	oracle := &sim.Oracle{Truth: corpus.Truth}
	const steps = 10
	for i := 0; i < steps; i++ {
		ref.Step(oracle)
	}
	if ref.GainCache().Hits() == 0 {
		t.Fatal("library reference never hit the gain cache — test is vacuous")
	}

	client, _ := newTestServer(t, Config{Workers: 2})
	info, err := client.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, client, info.ID, steps)
	assertSameTrace(t, servedTrace(t, client, info.ID), libraryTrace(ref, corpus.Truth))
}

// Restore reopens a snapshotted session on the server.
func (c *Client) Restore(snap SessionSnapshot) (SessionInfo, error) {
	var info SessionInfo
	err := c.do(http.MethodPost, "/v1/sessions", createPayload{Restore: &snap}, &info)
	return info, err
}

// State fetches the session's progress; withMarginals adds the
// per-claim credibility marginals.
func (c *Client) State(id string, withMarginals bool) (StateResponse, error) {
	var resp StateResponse
	p := "/v1/sessions/" + url.PathEscape(id) + "/state"
	if withMarginals {
		p += "?marginals=1"
	}
	err := c.do(http.MethodGet, p, nil, &resp)
	return resp, err
}

// Snapshot exports the session's durable form.
func (c *Client) Snapshot(id string) (SessionSnapshot, error) {
	var snap SessionSnapshot
	err := c.do(http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/snapshot", nil, &snap)
	return snap, err
}
