package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"factcheck/internal/edge"
	"factcheck/internal/factdb"
	"factcheck/internal/obs"
	"factcheck/internal/persist"
	"factcheck/internal/synth"
)

// finishedPair is one session opened under the same id on two managers
// and answered until Done through the /v1 handler: on rel it has
// released its database's base; on held the regenerator was taken off
// before it finished, so it holds the base throughout.
type finishedPair struct{ rel, held *Manager }

func newFinishedPair(t *testing.T, req OpenRequest) finishedPair {
	t.Helper()
	p := finishedPair{
		rel:  NewManager(Config{Workers: 1, Store: persist.NewMemStore()}),
		held: NewManager(Config{Workers: 1, Store: persist.NewMemStore()}),
	}
	t.Cleanup(func() { p.rel.Shutdown(); p.held.Shutdown() })
	for _, m := range []*Manager{p.rel, p.held} {
		c := NewLocalClient(m)
		if _, err := c.OpenAs("f", req); err != nil {
			t.Fatal(err)
		}
		if m == p.held {
			p.db(m).SetRegenerator(nil)
		}
		if st := mustAnswers(t, c, "f", math.MaxInt); !st.Done {
			t.Fatal("the session is not done after answering every question")
		}
	}
	p.released(t, "finished")
	return p
}

// db is the database of m's live session "f".
func (p finishedPair) db(m *Manager) *factdb.DB {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.slots["f"].sess.core.DB
}

// hold makes held's session hold its base again after a revive or an
// import built it over a fresh corpus, which released its base at once.
func (p finishedPair) hold() {
	db := p.db(p.held)
	db.RegenerateBase()
	db.SetRegenerator(nil)
}

// released asserts that rel's session has released its base and held's
// has not.
func (p finishedPair) released(t *testing.T, at string) {
	t.Helper()
	if !p.db(p.rel).BaseReleased() || p.db(p.held).BaseReleased() {
		t.Fatalf("%s: base released %v, the holding twin's %v", at, p.db(p.rel).BaseReleased(), p.db(p.held).BaseReleased())
	}
}

// route serves one request on both managers and returns both replies,
// after checking that their statuses agree.
func (p finishedPair) route(t *testing.T, method, path string, body any) (rel, held *httptest.ResponseRecorder) {
	t.Helper()
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	serve := func(m *Manager) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		NewServer(m).Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
		return rec
	}
	rel, held = serve(p.rel), serve(p.held)
	if rel.Code != held.Code {
		t.Fatalf("%s %s: %d %s; the holding twin: %d %s", method, path, rel.Code, rel.Body, held.Code, held.Body)
	}
	return rel, held
}

// same serves one request on both managers and requires the status
// want and byte-identical bodies.
func (p finishedPair) same(t *testing.T, method, path string, body any, want int) []byte {
	t.Helper()
	rel, held := p.route(t, method, path, body)
	if rel.Code != want {
		t.Fatalf("%s %s: %d %s, want %d", method, path, rel.Code, rel.Body, want)
	}
	if !bytes.Equal(rel.Body.Bytes(), held.Body.Bytes()) {
		t.Fatalf("%s %s answered\n %s\nthe holding twin\n %s", method, path, rel.Body, held.Body)
	}
	return rel.Body.Bytes()
}

// TestFinishedSessionServesEveryRoute: every /v1 route of a finished
// session whose database released its base (DESIGN.md §7) answers what
// the same session answers while holding it, and none panics. The
// reads — state with marginals, next, a refused answer, trace,
// snapshot — leave the base released; export → import, and spill →
// revive, build the session again over a fresh corpus that releases its
// base at once (the twin is made to hold it again); an ingest that
// un-finishes it regenerates the base, and the ranking over the grown
// corpus is the twin's; delete removes it.
func TestFinishedSessionServesEveryRoute(t *testing.T) {
	p := newFinishedPair(t, fastOpen("wiki", 0.2, 61))

	p.same(t, "GET", "/v1/sessions/f/state?marginals=1", nil, http.StatusOK)
	p.same(t, "GET", "/v1/sessions/f/next?k=3", nil, http.StatusOK)
	rel, _ := p.route(t, "POST", "/v1/sessions/f/answer", AnswerRequest{Claim: 0, Verdict: true})
	var env edge.ErrorBody
	if err := json.Unmarshal(rel.Body.Bytes(), &env); err != nil || rel.Code != http.StatusConflict || env.Error.Code != "session_done" {
		t.Fatalf("answer on a finished session: %d %s, want 409 session_done", rel.Code, rel.Body)
	}
	rel, held := p.route(t, "GET", "/v1/sessions/f/trace", nil)
	var relTrace, heldTrace TraceResponse
	if json.Unmarshal(rel.Body.Bytes(), &relTrace) != nil || json.Unmarshal(held.Body.Bytes(), &heldTrace) != nil {
		t.Fatalf("trace: %s / %s", rel.Body, held.Body)
	}
	stages := func(spans []obs.Span) (out []string) {
		for _, s := range spans {
			out = append(out, s.Stage)
		}
		return out
	}
	if got, want := stages(relTrace.Spans), stages(heldTrace.Spans); len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("trace stages %v, the holding twin's %v", got, want)
	}
	p.same(t, "GET", "/v1/sessions/f/snapshot", nil, http.StatusOK)
	p.released(t, "after the reads")

	var snap SessionSnapshot
	if err := json.Unmarshal(p.same(t, "GET", "/v1/sessions/f/export", nil, http.StatusOK), &snap); err != nil {
		t.Fatal(err)
	}
	p.same(t, "POST", "/v1/sessions/f/import", snap, http.StatusCreated)
	p.hold()
	p.released(t, "imported")
	p.same(t, "GET", "/v1/sessions/f/state?marginals=1", nil, http.StatusOK)

	spill(t, p.rel, 1)
	spill(t, p.held, 1)
	p.same(t, "GET", "/v1/sessions/f/state?marginals=1", nil, http.StatusOK)
	p.hold()
	p.released(t, "revived")
	p.same(t, "GET", "/v1/sessions/f/next?k=3", nil, http.StatusOK)

	d := synth.GenerateDelta(synth.Wikipedia.At(p.db(p.rel).Stats()), 0.2, 62)
	p.same(t, "POST", "/v1/sessions/f/claims", IngestRequest{Delta: d}, http.StatusOK)
	if p.db(p.rel).BaseReleased() {
		t.Fatal("an ingest un-finished the session but left its base released")
	}
	p.same(t, "GET", "/v1/sessions/f/next?k=3", nil, http.StatusOK)
	p.same(t, "GET", "/v1/sessions/f/state?marginals=1", nil, http.StatusOK)
	p.same(t, "DELETE", "/v1/sessions/f", nil, http.StatusOK)
}

// TestFinishedTailNeedsNoBase: a session whose budget is spent stays
// Done through an ingest, and releases its base again behind it,
// keeping the delta's rows as its tail. Export and spill write the
// transcript, the delta included, from that tail alone: the released
// database is not regenerated, and what they write revives to the
// holding twin's session.
func TestFinishedTailNeedsNoBase(t *testing.T) {
	req := fastOpen("wiki", 0.2, 63)
	req.Budget = 5
	p := newFinishedPair(t, req)
	d := synth.GenerateDelta(synth.Wikipedia.At(p.db(p.rel).Stats()), 0.2, 64)
	p.same(t, "POST", "/v1/sessions/f/claims", IngestRequest{Delta: d}, http.StatusOK)
	p.released(t, "ingested, still done")

	db := p.db(p.rel)
	spill(t, p.rel, 1)
	spill(t, p.held, 1)
	if !db.BaseReleased() {
		t.Fatal("spilling a finished session regenerated its base")
	}
	p.same(t, "GET", "/v1/sessions/f/state?marginals=1", nil, http.StatusOK)
	p.hold()
	p.released(t, "revived")

	db = p.db(p.rel)
	var snap SessionSnapshot
	if err := json.Unmarshal(p.same(t, "GET", "/v1/sessions/f/export", nil, http.StatusOK), &snap); err != nil {
		t.Fatal(err)
	}
	if !db.BaseReleased() {
		t.Fatal("exporting a finished session regenerated its base")
	}
	ingests := 0
	for _, e := range snap.Elicitations {
		if e.Ingest != nil {
			ingests++
			if !reflect.DeepEqual(*e.Ingest, d) {
				t.Fatal("the exported transcript carries another delta than the one applied")
			}
		}
	}
	if ingests != 1 {
		t.Fatalf("the exported transcript carries %d deltas, want 1", ingests)
	}
	p.same(t, "POST", "/v1/sessions/f/import", snap, http.StatusCreated)
	p.same(t, "GET", "/v1/sessions/f/state?marginals=1", nil, http.StatusOK)
}
