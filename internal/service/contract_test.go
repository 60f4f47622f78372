package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"factcheck/internal/edge"
	"factcheck/internal/edge/edgetest"
	"factcheck/internal/factdb"
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
	client, m := newTestServer(t, Config{Workers: 1})
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

	// "spent": a budget of one answer, spent; the session reports done.
	spent := fastOpen("wiki", 0.05, 4)
	spent.Budget = 1
	if _, err := m.OpenAs("spent", spent); err != nil {
		t.Fatal(err)
	}
	if st := mustAnswers(t, client, "spent", 1); !st.Done {
		t.Fatal("budget-1 session should report done after one answer")
	}
	spentNext, err := client.Next("spent", 1)
	if err != nil || !spentNext.Done {
		t.Fatalf("next on a spent session = %+v, %v; want done", spentNext, err)
	}

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
	// instead of applying; once MailboxCap are queued the next is refused.
	if _, err := m.OpenAs("busy", fastOpen("wiki", 0.08, 53)); err != nil {
		t.Fatal(err)
	}
	busy, err := m.get(context.Background(), "busy")
	if err != nil {
		t.Fatal(err)
	}
	ds := mailboxFill(busy.core.DB.Stats(), 61)
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
	for _, d := range ds[:MailboxCap] {
		if resp := edgetest.Do(t, base, http.MethodPost, "/v1/sessions/busy/claims", ingestBody(d)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("busy-session ingest answered %d, want 202 (queued)", resp.StatusCode)
		}
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
		{"open negative field", base, "POST", "/sessions", `{"profile":"wiki","scale":0.1,"seed":41,"fullSweepEvery":-1}`, 400, CodeBadRequest, 0},
		{"open unknown profile", base, "POST", "/sessions", `{"profile":"nonesuch"}`, 400, CodeBadRequest, 0},
		{"open unknown strategy", base, "POST", "/sessions", `{"profile":"wiki","scale":0.05,"seed":1,"strategy":"clairvoyance"}`, 400, CodeBadRequest, 0},
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
		{"answer after budget spent", base, "POST", "/sessions/spent/answer", `{"claim":0,"oracle":true}`, 409, CodeDone, 0},
		{"answer after budget spent at its sequence", base, "POST", "/sessions/spent/answer",
			fmt.Sprintf(`{"claim":1,"oracle":true,"seq":%d}`, spentNext.Seq), 409, CodeDone, 0},
		{"exported session", base, "GET", "/sessions/moved/state", "", 410, CodeMigrated, 0},
		{"ingest unknown session", base, "POST", "/sessions/ghost/claims", ingestBody(ds[0]), 404, CodeNotFound, 0},
		{"ingest malformed body", base, "POST", "/sessions/live/claims", "{not json", 400, CodeBadRequest, 0},
		{"ingest empty delta", base, "POST", "/sessions/live/claims", `{"delta":{}}`, 400, CodeBadRequest, 0},
		{"ingest truth mismatch", base, "POST", "/sessions/live/claims", `{"delta":{"newClaims":2,"truth":[true]}}`, 400, CodeBadRequest, 0},
		{"sources endpoint with claims", base, "POST", "/sessions/live/sources",
			`{"delta":{"newClaims":1,"truth":[true]}}`, 400, CodeBadRequest, 0},
		{"mailbox full", base, "POST", "/sessions/busy/claims", ingestBody(ds[MailboxCap]), 429, CodeMailboxFull, 1},
		{"session limit", fullClient.BaseURL, "POST", "/sessions", openBody, 503, CodeSessionLimit, 1},
		{"shutting down", shutClient.BaseURL, "GET", "/sessions", "", 503, CodeShuttingDown, 1},
		{"persist failure", persistClient.BaseURL, "DELETE", "/sessions/ghost", "", 500, CodePersistFailure, 0},
		{"admission shed", shedClient.BaseURL, "POST", "/sessions", openBody, 429, CodeShedding, 1},
	}
	provoked := map[string]bool{}
	for _, tc := range cases {
		provoked[tc.code] = true
		t.Run(tc.name, func(t *testing.T) {
			resp := edgetest.Do(t, tc.base, tc.method, "/v1"+tc.path, tc.body)
			edgetest.AssertEnvelope(t, resp, tc.status, tc.code, tc.retry)
			// The client's own decoding of the same response: the row's
			// sentinel and hint.
			assertDecodes(t, decodeAPIError(tc.method, tc.path, resp))
		})
	}
	unlockBusy()
	unlockBusy = nil

	// Every row with a sentinel is a refusal of this layer, provoked
	// above; the router's contract test provokes the rows without one.
	for _, r := range Refusals {
		if r.Err != nil && !provoked[r.Code] {
			t.Errorf("no case provokes the %s row", r.Code)
		}
		assertDecodes(t, &APIError{Status: r.Status, Code: r.Code, RetryAfter: time.Duration(r.RetryAfter) * time.Second})
	}

	edgetest.AssertNoBareRoutes(t, base, NewServer(m).routes())
	edgetest.AssertBodyLimit(t, base, "/v1/sessions/ghost/import")
	edgetest.AssertTraceEcho(t, base, "/v1/sessions/live/state")
}

// assertDecodes checks a decoded refusal against its code's row in
// Refusals: Unwrap gives the row's sentinel, the hint is the row's, and
// the client replays exactly the rows with one.
func assertDecodes(t *testing.T, api *APIError) {
	t.Helper()
	r, ok := refusalFor(api.Code)
	if !ok {
		t.Fatalf("code %q is not a row of Refusals", api.Code)
	}
	hint := time.Duration(r.RetryAfter) * time.Second
	if api.Unwrap() != r.Err || api.RetryAfter != hint || retryable(api) != (hint > 0) {
		t.Fatalf("%s decodes to sentinel %v, hint %v, retryable %v; its row says %v, %v",
			r.Code, api.Unwrap(), api.RetryAfter, retryable(api), r.Err, hint)
	}
}

// FuzzV1Bodies sends arbitrary bytes as the body of every POST route —
// open, answer, claims, sources, import — through the whole handler in
// process, as NewLocalClient serves it, so a panic fails the fuzz.
// Every response is a 2xx or the envelope of a row of Refusals (or the
// edge's 413) with that row's status and hint, and no call leaves a
// worker lane held. The live session takes the manager's one seat, so
// an open or import that decodes is refused at the cap instead of
// building whatever corpus the bytes ask for; an input that changed the
// session gets a fresh one.
func FuzzV1Bodies(f *testing.F) {
	m := NewManager(Config{Workers: 1, MaxSessions: 1})
	f.Cleanup(m.Shutdown)
	h := NewServer(m).Handler()
	req := fastOpen("wiki", 0.05, 3)
	open := func(tb testing.TB) {
		if _, err := m.OpenAs("live", req); err != nil {
			tb.Fatal(err)
		}
	}
	open(f)

	// Seeds: a valid body for each route.
	ctx := context.Background()
	next, err := m.NextCtx(ctx, "live", 1)
	if err != nil {
		f.Fatal(err)
	}
	live, err := m.get(ctx, "live")
	if err != nil {
		f.Fatal(err)
	}
	d := synth.GenerateDelta(synth.Wikipedia.At(live.core.DB.Stats()), 0.1, 5)
	claimFree := factdb.Delta{Sources: d.Sources[:1], Documents: []factdb.DeltaDocument{{
		Source: -1, Features: d.Documents[0].Features, Refs: []factdb.DeltaRef{{Claim: 0, Stance: factdb.Support}},
	}}}
	snap, err := m.Snapshot("live")
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range []any{req, AnswerRequest{Claim: next.Candidates[0].Claim, Oracle: true, Seq: &next.Seq},
		IngestRequest{Delta: d}, IngestRequest{Delta: claimFree}, snap} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		changed := false
		for _, path := range []string{"/v1/sessions", "/v1/sessions/live/answer", "/v1/sessions/live/claims",
			"/v1/sessions/live/sources", "/v1/sessions/imported/import"} {
			r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			if n := m.Budget().InUse(); n != 0 {
				t.Fatalf("POST %s left %d worker lanes held", path, n)
			}
			if rec.Code/100 == 2 {
				changed = true
				continue
			}
			// A body that is not an envelope leaves the code empty, which
			// no row has.
			var env edge.ErrorBody
			_ = json.Unmarshal(rec.Body.Bytes(), &env)
			row, ok := refusalFor(env.Error.Code)
			if env.Error.Code == edge.CodeBodyTooLarge {
				row, ok = Refusal{Code: edge.CodeBodyTooLarge, Status: http.StatusRequestEntityTooLarge}, true
			}
			if !ok {
				t.Fatalf("POST %s answered %d %q: not a row of Refusals", path, rec.Code, rec.Body)
			}
			edgetest.AssertEnvelope(t, rec.Result(), row.Status, row.Code, row.RetryAfter)
		}
		if changed {
			if err := m.Delete("live"); err != nil {
				t.Fatal(err)
			}
			open(t)
		}
	})
}

// Controller exposes the overload controller (nil when disabled).
func (m *Manager) Controller() *SLOController { return m.slo }
