package service

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestExportImportMovesSession is the execution-layer half of a
// migration: export freezes a session on one manager, import rebuilds
// it bit-identically on another, and the exported copy answers
// ErrMigrated instead of quietly reviving its rollback record.
func TestExportImportMovesSession(t *testing.T) {
	src := NewManager(Config{Workers: 1})
	defer src.Shutdown()
	dst := NewManager(Config{Workers: 1})
	defer dst.Shutdown()

	req := fastOpen("wiki", 0.1, 11)
	info, err := src.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID
	mustAnswers(t, NewLocalClient(src), id, 3)
	before, err := src.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}

	snap, err := src.Export(id)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if !reflect.DeepEqual(snap.Elicitations, before.Elicitations) {
		t.Fatal("export does not carry the full transcript")
	}
	// The source must refuse to serve the exported session — a stray
	// request reviving the rollback copy would fork the session.
	if _, err := src.State(id, false); !errors.Is(err, ErrMigrated) {
		t.Fatalf("state on the source after export: %v, want ErrMigrated", err)
	}
	// But the rollback record must still be there (not listed as owned,
	// not deleted).
	if _, ok, _ := src.Store().Load(id); !ok {
		t.Fatal("export deleted the rollback record")
	}
	if sl, _ := src.Sessions(); len(sl.Live)+len(sl.Stored) != 0 {
		t.Fatalf("exported session still listed as owned: %+v", sl)
	}

	if _, err := dst.Import(id, snap); err != nil {
		t.Fatalf("import: %v", err)
	}
	after, err := dst.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("imported session diverged:\nbefore: %+v\nafter:  %+v", before, after)
	}
	// The payload carried the state image and the import installed it.
	if len(snap.Image) == 0 {
		t.Fatal("export payload carries no state image")
	}
	assertRestores(t, dst, 1, nil)
	// The moved session keeps serving.
	mustAnswers(t, NewLocalClient(dst), id, 1)

	// Tombstoning the source clears the rollback copy and the mark.
	if err := src.Delete(id); err != nil {
		t.Fatalf("tombstone: %v", err)
	}
	if _, ok, _ := src.Store().Load(id); ok {
		t.Fatal("tombstone left the rollback record")
	}
}

// TestImportRollback: importing an exported snapshot back onto its
// source (the failed-migration path) clears the migrated mark and
// resumes service.
func TestImportRollback(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	info, err := m.Open(fastOpen("wiki", 0.1, 12))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Export(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Import(info.ID, snap); err != nil {
		t.Fatalf("rollback import: %v", err)
	}
	if _, err := m.State(info.ID, false); err != nil {
		t.Fatalf("state after rollback: %v", err)
	}
}

// TestOpenAsCollisions: OpenAs pins ids (the shard router's placement
// contract) and refuses to stomp an existing session, live or stored.
func TestOpenAsCollisions(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	req := fastOpen("wiki", 0.1, 13)
	if _, err := m.OpenAs("pinned-id", req); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenAs("pinned-id", req); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate OpenAs: %v, want ErrExists", err)
	}
	if _, err := m.OpenAs("bad id!", req); err == nil {
		t.Fatal("OpenAs accepted an invalid id")
	}
	if _, err := m.OpenAs("", req); err == nil {
		t.Fatal("OpenAs accepted an empty id")
	}
}

// TestAnswerReplayFromMigratedTranscript pins the transcript-based
// idempotency that survives a migration: the in-memory last-applied
// memo is gone on the new owner, so a retried answer must be
// recognized from the transcript itself.
func TestAnswerReplayFromMigratedTranscript(t *testing.T) {
	src := NewManager(Config{Workers: 1})
	defer src.Shutdown()
	dst := NewManager(Config{Workers: 1})
	defer dst.Shutdown()

	info, err := src.Open(fastOpen("wiki", 0.1, 14))
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID
	next, err := src.NextCtx(context.Background(), id, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := next.Seq
	req := AnswerRequest{Claim: next.Candidates[0].Claim, Oracle: true, Seq: &seq}
	applied, err := src.AnswerCtx(context.Background(), id, req)
	if err != nil {
		t.Fatal(err)
	}

	// Move the session: the new owner never saw the answer above.
	snap, err := src.Export(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Import(id, snap); err != nil {
		t.Fatal(err)
	}

	// The client retries the already-applied answer against the new
	// owner. Without transcript replay this would 409 (stale seq).
	st, err := dst.AnswerCtx(context.Background(), id, req)
	if err != nil {
		t.Fatalf("replayed answer on the new owner: %v", err)
	}
	if st.Labeled != applied.Labeled || st.Seq != applied.Seq {
		t.Fatalf("replay state = %+v, first application = %+v", st, applied)
	}
	after, _ := dst.Snapshot(id)
	if len(after.Elicitations) != len(snap.Elicitations) {
		t.Fatalf("replay grew the transcript: %d -> %d", len(snap.Elicitations), len(after.Elicitations))
	}
	// A genuinely stale retry (same seq, different claim) must still be
	// rejected — replay detection must not become an idempotency hole.
	bad := AnswerRequest{Claim: req.Claim + 1, Oracle: true, Seq: &seq}
	if _, err := dst.AnswerCtx(context.Background(), id, bad); !errors.Is(err, ErrSeq) && !errors.Is(err, ErrWrongClaim) {
		t.Fatalf("stale mismatched answer: %v, want a conflict", err)
	}
}

// TestEndpointCountersInMetrics: the per-endpoint request/error
// counters and the backend id must surface in /metrics for the
// router's fleet attribution.
func TestEndpointCountersInMetrics(t *testing.T) {
	client, m := newTestServer(t, Config{Workers: 1, BackendID: "b1"})
	info, err := client.Open(fastOpen("wiki", 0.1, 18))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Next(info.ID, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := client.State(info.ID, false); err != nil {
		t.Fatal(err)
	}
	if _, err := client.State("no-such-session", false); err == nil {
		t.Fatal("want a 404")
	}
	_ = m

	mtr, err := client.Metrics(false)
	if err != nil {
		t.Fatal(err)
	}
	if mtr.BackendID != "b1" {
		t.Fatalf("backendId = %q, want b1", mtr.BackendID)
	}
	want := map[string]EndpointCounters{
		"open":  {Requests: 1},
		"next":  {Requests: 1},
		"state": {Requests: 2, Errors: 1},
	}
	for ep, c := range want {
		if got := mtr.Endpoints[ep]; got != c {
			t.Errorf("endpoints[%q] = %+v, want %+v", ep, got, c)
		}
	}
}

// TestExportImportOverHTTP drives a migration through the HTTP surface
// the router uses: OpenAs pins the id, Export/Import move the session
// between two servers, and Sessions reflects ownership on both sides.
func TestExportImportOverHTTP(t *testing.T) {
	c1, _ := newTestServer(t, Config{Workers: 1})
	c2, _ := newTestServer(t, Config{Workers: 1})

	info, err := c1.OpenAs("pinned-http-id", fastOpen("wiki", 0.1, 21))
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "pinned-http-id" {
		t.Fatalf("OpenAs returned id %q", info.ID)
	}
	mustAnswers(t, c1, info.ID, 1)

	snap, err := c1.Export(info.ID)
	if err != nil {
		t.Fatalf("export over HTTP: %v", err)
	}
	if len(snap.Elicitations) != 1 {
		t.Fatalf("export carries %d elicitations, want 1", len(snap.Elicitations))
	}
	// The exported session answers 410 Gone, surfaced as a typed
	// APIError with the status preserved.
	var apiErr *APIError
	if _, err := c1.State(info.ID, false); !errors.As(err, &apiErr) || apiErr.Status != http.StatusGone {
		t.Fatalf("state on the source after export: %v, want HTTP 410", err)
	}
	if !strings.Contains(apiErr.Error(), "410") {
		t.Fatalf("APIError message hides the status: %q", apiErr.Error())
	}

	if _, err := c2.Import(info.ID, snap); err != nil {
		t.Fatalf("import over HTTP: %v", err)
	}
	sl, err := c2.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sl.Live) != 1 || sl.Live[0] != info.ID {
		t.Fatalf("destination listing = %+v, want the imported session live", sl)
	}
	if sl, err := c1.Sessions(); err != nil || len(sl.Live)+len(sl.Stored) != 0 {
		t.Fatalf("source listing = %+v (%v), want empty", sl, err)
	}
	// A duplicate import is a conflict, not a silent overwrite.
	if _, err := c2.Import(info.ID, snap); !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("duplicate import: %v, want HTTP 409", err)
	}
	// Export of a session this server never held is a 404.
	if _, err := c2.Export("no-such-session"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("export of a missing session: %v, want HTTP 404", err)
	}
	// The moved session keeps serving over HTTP.
	if _, err := c2.Next(info.ID, 1); err != nil {
		t.Fatalf("next on the destination: %v", err)
	}
}

func TestRetryPolicyDefaultsAndAPIErrorFormat(t *testing.T) {
	p := (RetryPolicy{MaxAttempts: 3}).withDefaults()
	if p.BaseDelay != 50*time.Millisecond || p.MaxDelay != 2*time.Second || p.Seed != 1 {
		t.Fatalf("withDefaults left zeros: %+v", p)
	}
	full := (RetryPolicy{MaxAttempts: 2, BaseDelay: time.Second, MaxDelay: 3 * time.Second, Seed: 7}).withDefaults()
	if full.BaseDelay != time.Second || full.MaxDelay != 3*time.Second || full.Seed != 7 {
		t.Fatalf("withDefaults stomped explicit values: %+v", full)
	}

	withMsg := &APIError{Method: "GET", Path: "/x", Message: "broken", Status: 500}
	if got := withMsg.Error(); got != "GET /x: broken (HTTP 500)" {
		t.Fatalf("Error() = %q", got)
	}
	bare := &APIError{Method: "GET", Path: "/x", Status: 502}
	if got := bare.Error(); got != "GET /x: HTTP 502" {
		t.Fatalf("Error() = %q", got)
	}
}
