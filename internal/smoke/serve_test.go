package smoke

import (
	"net/http"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"factcheck/internal/core"
	"factcheck/internal/obs"
	"factcheck/internal/service"
)

// TestServeSmoke boots factcheck-server on a durable -data-dir, drives a
// session with oracle answers and a mid-session corpus delta, then
// SIGKILLs the server and restarts it on the same directory: the
// session must come back from its checkpoint's state image plus the
// WAL behind it with an identical transcript, keep answering, and have
// asked exactly the claims the library path asks when it ingests the
// same delta at the same position. It ends with DELETE and SIGTERM.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	args := []string{"-addr", "127.0.0.1:0", "-idle-ttl", "1m", "-data-dir", data, "-checkpoint-every", "3"}
	srv := start(t, dir, "server1.log", "factcheck-server", args...)
	mustMatch(t, srv.output(), `recovered 0 stored session\(s\)`)

	s := &service.Script{Client: service.NewClient(srv.base)}
	if _, err := s.Open("", openReq); err != nil {
		t.Fatal(err)
	}
	st, err := s.Answers(3)
	if err != nil {
		t.Fatal(err)
	}
	// The delta the library path ingests below is this value.
	delta, ing, err := s.Ingest(0.08, 777)
	if err != nil || !ing.Applied || ing.Claims <= st.Claims {
		t.Fatalf("ingest after 3 answers (%d claims before): %+v, %v", st.Claims, ing, err)
	}
	if _, err := s.Answers(3); err != nil {
		t.Fatal(err)
	}

	m, err := s.Client.Metrics(true)
	if err != nil || m.AnswersServed != 6 || m.AnswerLatency.Count != 6 || len(m.AnswerLatencyBuckets) == 0 {
		t.Fatalf("metrics after 6 answers: %+v, %v", m, err)
	}
	mustMatch(t, prom(t, srv.base), `^factcheck_answers_served_total`,
		`^factcheck_answer_latency_seconds_bucket`, `^factcheck_stage_latency_seconds_bucket\{.*stage="resample"`)

	// A client's trace id is echoed, lands in the session's span ring,
	// and an error envelope carries one.
	req, err := http.NewRequest("GET", srv.base+"/v1/sessions/"+s.ID+"/next?k=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, "smoke-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); resp.StatusCode != http.StatusOK || got != "smoke-trace-1" {
		t.Fatalf("traced /next: %s, trace header %q", resp.Status, got)
	}
	var tr service.TraceResponse
	decode(t, must(t, "GET", srv.base+"/v1/sessions/"+s.ID+"/trace", ""), &tr)
	if !slices.ContainsFunc(tr.Spans, func(sp obs.Span) bool { return sp.Stage == "resample" }) ||
		!slices.ContainsFunc(tr.Spans, func(sp obs.Span) bool { return sp.Trace == "smoke-trace-1" }) {
		t.Fatalf("span ring lacks a resample span or the forced trace id: %+v", tr.Spans)
	}
	var env struct{ Error service.ErrorInfo }
	_, body := call(t, "GET", srv.base+"/v1/sessions/no-such-session/state", "")
	decode(t, body, &env)
	if env.Error.TraceID == "" {
		t.Fatalf("error envelope without a traceId: %s", body)
	}

	before := snapshot(t, srv.base, s.ID)
	if !slices.ContainsFunc(before.Elicitations, func(e core.Elicitation) bool { return e.Ingest != nil }) || len(before.Image) == 0 {
		t.Fatal("snapshot lacks the ingest record or a state image")
	}

	// No drain, no checkpoint: recovery comes from what the server wrote
	// before each answer's response.
	srv.kill()
	srv = start(t, dir, "server2.log", "factcheck-server", args...)
	mustMatch(t, srv.output(), `recovered 1 stored session\(s\)`)
	s.Client = service.NewClient(srv.base)

	// The killed server had ranked the next question and the recovered
	// one has not, which only the image records: compare without it.
	after := snapshot(t, srv.base, s.ID)
	before.Image, after.Image = nil, nil
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("transcript changed across the SIGKILL:\nbefore %+v\nafter  %+v", before, after)
	}
	// -checkpoint-every 3 leaves a WAL tail behind the image.
	if m, err = s.Client.Metrics(false); err != nil || m.RestoresImage != 1 || len(m.RestoresReplay) != 0 {
		t.Fatalf("recovery did not restore from the image: %+v, %v", m, err)
	}
	mustMatch(t, prom(t, srv.base), `^factcheck_restores_image_total 1$`,
		`^factcheck_stage_latency_seconds_count\{stage="restore"\} 1$`)

	if _, err := s.Answers(4); err != nil {
		t.Fatal(err)
	}
	sameTrace(t, snapshot(t, srv.base, s.ID), libraryTrace(t, openReq, 10, 3, &delta))

	if err := s.Client.Delete(s.ID); err != nil {
		t.Fatal(err)
	}
	if h, err := s.Client.Health(); err != nil || h.Sessions != 0 || h.Spilled != 0 {
		t.Fatalf("health after DELETE: %+v, %v", h, err)
	}
	if snaps, _ := filepath.Glob(filepath.Join(data, "*.snap")); len(snaps) != 0 {
		t.Fatalf("data dir still holds %v after DELETE", snaps)
	}
	srv.term(t)
	mustMatch(t, srv.output(), `factcheck-server: stopped`)
}
