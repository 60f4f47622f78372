package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"factcheck/internal/edge/edgetest"
	"factcheck/internal/obs"
	"factcheck/internal/persist"
	"factcheck/internal/synth"
)

// brokenStore fails every Load, modelling a store whose medium died
// under a running manager.
type brokenStore struct{ persist.Store }

func (brokenStore) Load(string) (persist.Record, bool, error) {
	return persist.Record{}, false, errors.New("stored records unreadable")
}

// TestErrorEnvelopeContract drives every handler error path and asserts
// each refusal carries the JSON error envelope with its stable code and
// the mirrored Retry-After hint; then that no row of the route table is
// reachable outside /v1.
func TestErrorEnvelopeContract(t *testing.T) {
	client, m := newTestServer(t, Config{Workers: 1, MailboxCap: 1})
	base := client.BaseURL

	// "live": a session mid-run, one answer in, with a stale sequence
	// and a wrong claim prepared for the 409 cases.
	if _, err := m.OpenAs("live", fastOpen("wiki", 0.1, 41)); err != nil {
		t.Fatal(err)
	}
	n1, err := client.Next("live", 1)
	if err != nil {
		t.Fatal(err)
	}
	staleSeq := n1.Seq
	st := mustAnswers(t, client, "live", 1)
	expected := st.Expected
	wrong := (expected + 1) % st.Claims

	// "done": driven to completion, so answering it again conflicts.
	if _, err := m.OpenAs("done", fastOpen("wiki", 0.1, 43)); err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, client, "done", st.Claims)

	// "moved": exported to another backend; requests answer 410.
	if _, err := m.OpenAs("moved", fastOpen("wiki", 0.1, 47)); err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, client, "moved", 1)
	if _, err := m.Export("moved"); err != nil {
		t.Fatal(err)
	}

	// "busy": its lock held for the whole table, so ingests queue
	// instead of applying; with MailboxCap 1 the second is refused.
	if _, err := m.OpenAs("busy", fastOpen("wiki", 0.08, 53)); err != nil {
		t.Fatal(err)
	}
	busy, err := m.get(context.Background(), "busy")
	if err != nil {
		t.Fatal(err)
	}
	d1 := synth.GenerateDelta(synth.Wikipedia.At(busy.core.DB.Stats()), 0.1, 61)
	d2 := synth.GenerateDelta(synth.Wikipedia.At(busy.core.DB.Stats(), d1), 0.1, 67)
	ingestBody := func(d any) string {
		b, err := json.Marshal(map[string]any{"delta": d})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	busy.mu.Lock()
	unlockBusy := func() { busy.mu.Unlock() }
	defer func() {
		if unlockBusy != nil {
			unlockBusy()
		}
	}()
	if resp := edgetest.Do(t, base, http.MethodPost, "/v1/sessions/busy/claims", ingestBody(d1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("busy-session ingest answered %d, want 202 (queued)", resp.StatusCode)
	}

	// Fixture servers for the manager-wide refusals.
	fullClient, fullM := newTestServer(t, Config{Workers: 1, MaxSessions: 1})
	if _, err := fullM.Open(fastOpen("wiki", 0.1, 59)); err != nil {
		t.Fatal(err)
	}

	shutClient, shutM := newTestServer(t, Config{Workers: 1})
	shutM.Shutdown()

	persistClient, _ := newTestServer(t, Config{Workers: 1, Store: brokenStore{persist.NewMemStore()}})

	// A controller walked to the shedding rung with virtual timestamps;
	// real requests land earlier than its last evaluation, inside the
	// cadence gate, so admission control sees the rung as-is.
	shedClient, shedM := newTestServer(t, Config{Workers: 1, SLO: SLOConfig{
		P99: 0.1, WindowSeconds: 10, Slots: 5, MinSamples: 2,
		DegradeAfter: 2, ShedAfter: 2, RecoverAfter: 2,
	}})
	ctrl := shedM.Controller()
	for i := 0; i < 8; i++ {
		ctrl.ObserveAnswer(float64(i), 0.01, 0)
	}
	ctrl.ObserveAnswer(10, 0.5, 0)
	ctrl.ObserveAnswer(11, 0.5, 0)
	ctrl.ModeAt(12, 0)
	ctrl.ModeAt(14, 1)
	if got := ctrl.ModeAt(16, 2); got != ModeShedding {
		t.Fatalf("controller mode = %v, want shedding", got)
	}

	openBody := `{"profile":"wiki","scale":0.1,"seed":71,"candidatePool":4}`
	cases := []struct {
		name   string
		base   string
		method string
		path   string // canonical path, without the /v1 prefix
		body   string
		status int
		code   string
		retry  int
	}{
		{"open malformed body", base, "POST", "/sessions", "{not json", 400, CodeBadRequest, 0},
		{"open duplicate id", base, "POST", "/sessions", `{"id":"live","profile":"wiki","scale":0.1,"seed":41}`, 409, CodeExists, 0},
		{"next bad k", base, "GET", "/sessions/live/next?k=0", "", 400, CodeBadRequest, 0},
		{"next unknown session", base, "GET", "/sessions/ghost/next", "", 404, CodeNotFound, 0},
		{"state unknown session", base, "GET", "/sessions/ghost/state", "", 404, CodeNotFound, 0},
		{"snapshot unknown session", base, "GET", "/sessions/ghost/snapshot", "", 404, CodeNotFound, 0},
		{"export unknown session", base, "GET", "/sessions/ghost/export", "", 404, CodeNotFound, 0},
		{"delete unknown session", base, "DELETE", "/sessions/ghost", "", 404, CodeNotFound, 0},
		{"answer unknown session", base, "POST", "/sessions/ghost/answer", `{"claim":0,"oracle":true}`, 404, CodeNotFound, 0},
		{"answer malformed body", base, "POST", "/sessions/live/answer", "{not json", 400, CodeBadRequest, 0},
		{"import malformed body", base, "POST", "/sessions/ghost/import", "{not json", 400, CodeBadRequest, 0},
		{"answer wrong claim", base, "POST", "/sessions/live/answer",
			fmt.Sprintf(`{"claim":%d,"oracle":true}`, wrong), 409, CodeWrongClaim, 0},
		{"answer stale seq", base, "POST", "/sessions/live/answer",
			fmt.Sprintf(`{"claim":%d,"oracle":true,"seq":%d}`, expected, staleSeq), 409, CodeStaleSeq, 0},
		{"answer finished session", base, "POST", "/sessions/done/answer", `{"claim":0,"oracle":true}`, 409, CodeDone, 0},
		{"exported session", base, "GET", "/sessions/moved/state", "", 410, CodeMigrated, 0},
		{"ingest unknown session", base, "POST", "/sessions/ghost/claims", ingestBody(d1), 404, CodeNotFound, 0},
		{"ingest malformed body", base, "POST", "/sessions/live/claims", "{not json", 400, CodeBadRequest, 0},
		{"ingest empty delta", base, "POST", "/sessions/live/claims", `{"delta":{}}`, 400, CodeBadRequest, 0},
		{"ingest truth mismatch", base, "POST", "/sessions/live/claims", `{"delta":{"newClaims":2,"truth":[true]}}`, 400, CodeBadRequest, 0},
		{"sources endpoint with claims", base, "POST", "/sessions/live/sources",
			`{"delta":{"newClaims":1,"truth":[true]}}`, 400, CodeBadRequest, 0},
		{"mailbox full", base, "POST", "/sessions/busy/claims", ingestBody(d2), 429, CodeMailboxFull, 1},
		{"session limit", fullClient.BaseURL, "POST", "/sessions", openBody, 503, CodeSessionLimit, 1},
		{"shutting down", shutClient.BaseURL, "GET", "/sessions", "", 503, CodeShuttingDown, 1},
		{"persist failure", persistClient.BaseURL, "DELETE", "/sessions/ghost", "", 500, CodePersistFailure, 0},
		{"admission shed", shedClient.BaseURL, "POST", "/sessions", openBody, 429, CodeShedding, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := edgetest.Do(t, tc.base, tc.method, "/v1"+tc.path, tc.body)
			edgetest.AssertEnvelope(t, resp, tc.status, tc.code, tc.retry)
		})
	}
	unlockBusy()
	unlockBusy = nil

	edgetest.AssertNoBareRoutes(t, base, NewServer(m).routes())
	edgetest.AssertBodyLimit(t, base, "/v1/sessions/ghost/import")

	// Every request carries a trace id echoed on the response — the
	// uncounted probe endpoints included: a valid client id is honored,
	// anything else (none, or metacharacters) replaced with a minted one.
	for _, tc := range []struct {
		name, path, sent string
		honored          bool
	}{
		{"healthz mints", "/v1/healthz", "", false},
		{"metrics mints", "/v1/metrics", "", false},
		{"valid id honored", "/v1/healthz", "client-trace.1", true},
		{"invalid id replaced", "/v1/sessions/live/state", "bad id\"", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := edgetest.Do(t, base, http.MethodGet, tc.path, "", obs.TraceHeader, tc.sent).Header.Get(obs.TraceHeader)
			if !obs.ValidTraceID(got) || (got == tc.sent) != tc.honored {
				t.Fatalf("sent trace %q, response echoes %q (honored = %v)", tc.sent, got, tc.honored)
			}
		})
	}
}

// TestClientTypedErrors pins the client half of the error contract:
// every envelope code decodes into an *APIError whose Unwrap maps onto
// the matching service sentinel, so errors.Is works identically for
// over-the-wire and in-process callers.
func TestClientTypedErrors(t *testing.T) {
	client, m := newTestServer(t, Config{Workers: 1, MailboxCap: 1})

	info, err := client.Open(fastOpen("wiki", 0.1, 73))
	if err != nil {
		t.Fatal(err)
	}
	next, err := client.Next(info.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Answer(info.ID, AnswerRequest{Claim: next.Candidates[0].Claim, Oracle: true})
	if err != nil {
		t.Fatal(err)
	}
	next2, err := client.Next(info.ID, 1)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, err error, sentinel error, status int, code string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: no error", name)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("%s: errors.Is failed for %v", name, err)
		}
		var api *APIError
		if !errors.As(err, &api) {
			t.Fatalf("%s: not an *APIError: %v", name, err)
		}
		if api.Status != status || api.Code != code {
			t.Fatalf("%s: APIError status/code = %d/%q, want %d/%q", name, api.Status, api.Code, status, code)
		}
	}

	_, err = client.State("ghost", false)
	check("unknown session", err, ErrNotFound, 404, CodeNotFound)

	wrong := (next2.Candidates[0].Claim + 1) % st.Claims
	_, err = client.Answer(info.ID, AnswerRequest{Claim: wrong, Oracle: true})
	check("wrong claim", err, ErrWrongClaim, 409, CodeWrongClaim)

	staleSeq := next.Seq
	_, err = client.Answer(info.ID, AnswerRequest{Claim: next2.Candidates[0].Claim, Oracle: true, Seq: &staleSeq})
	check("stale seq", err, ErrSeq, 409, CodeStaleSeq)

	_, err = client.OpenAs(info.ID, fastOpen("wiki", 0.1, 73))
	check("duplicate open", err, ErrExists, 409, CodeExists)

	// Mailbox backpressure: hold the session lock so deltas queue, fill
	// the 1-slot mailbox, and assert the refusal carries the hint.
	s, err := m.get(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	d1 := synth.GenerateDelta(synth.Wikipedia.At(s.core.DB.Stats()), 0.1, 79)
	d2 := synth.GenerateDelta(synth.Wikipedia.At(s.core.DB.Stats(), d1), 0.1, 83)
	s.mu.Lock()
	if _, err := client.IngestClaims(info.ID, IngestRequest{Delta: d1}); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	_, err = client.IngestClaims(info.ID, IngestRequest{Delta: d2})
	s.mu.Unlock()
	check("mailbox full", err, ErrMailboxFull, 429, CodeMailboxFull)
	var api *APIError
	if !errors.As(err, &api) || api.RetryAfter <= 0 {
		t.Fatalf("mailbox refusal carries no Retry-After hint: %v", err)
	}

	// Migration: export the session, then address it.
	if _, err := m.Export(info.ID); err != nil {
		t.Fatal(err)
	}
	_, err = client.State(info.ID, false)
	check("exported session", err, ErrMigrated, 410, CodeMigrated)

	fullClient, fullM := newTestServer(t, Config{Workers: 1, MaxSessions: 1})
	if _, err := fullM.Open(fastOpen("wiki", 0.1, 89)); err != nil {
		t.Fatal(err)
	}
	_, err = fullClient.Open(fastOpen("wiki", 0.1, 97))
	check("session limit", err, ErrFull, 503, CodeSessionLimit)

	shutClient, shutM := newTestServer(t, Config{Workers: 1})
	shutM.Shutdown()
	_, err = shutClient.Sessions()
	check("shutdown", err, ErrShutdown, 503, CodeShuttingDown)

	persistClient, _ := newTestServer(t, Config{Workers: 1, Store: brokenStore{persist.NewMemStore()}})
	err = persistClient.Delete("ghost")
	check("persist failure", err, ErrPersist, 500, CodePersistFailure)
}

// Controller exposes the overload controller (nil when disabled).
func (m *Manager) Controller() *SLOController { return m.slo }
