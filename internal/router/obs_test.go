package router

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"factcheck/internal/factdb"
	"factcheck/internal/obs"
	"factcheck/internal/service"
	"factcheck/internal/synth"
)

// syncWriter is a concurrency-safe log sink for the slog handlers the
// tests inspect (handlers write from request goroutines).
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// tracedBackend boots one backend whose structured logs land in sink.
func tracedBackend(t *testing.T, cfg service.Config, sink *syncWriter) (*service.Manager, *httptest.Server) {
	t.Helper()
	m := service.NewManager(cfg)
	s := service.NewServer(m)
	s.SetLogger(obs.NewLogger(sink, "factcheck-server", slog.LevelDebug))
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() { srv.Close(); m.Shutdown() })
	return m, srv
}

// TestTracePropagationThroughProxyAndMigration checks the fleet-wide
// trace thread: a client-supplied trace id crosses the proxy hop into
// the backend's span ring and structured logs (and the router's own),
// the response echoes it back through copyResponse, and a drain
// migration mints its own id that shows up in the router's migration
// log and the backends' request logs for the export/import hops.
func TestTracePropagationThroughProxyAndMigration(t *testing.T) {
	backendLog := &syncWriter{}
	routerLog := &syncWriter{}

	m1, srv1 := tracedBackend(t, service.Config{Workers: 2, BackendID: "b1"}, backendLog)
	_, srv2 := tracedBackend(t, service.Config{Workers: 2, BackendID: "b2"}, backendLog)

	rt := New(Config{
		ProbeInterval: time.Hour,
		Logger:        obs.NewLogger(routerLog, "factcheck-router", slog.LevelDebug),
	})
	t.Cleanup(rt.Close)
	if err := rt.Join(srv1.URL); err != nil {
		t.Fatal(err)
	}
	rsrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rsrv.Close)

	const clientTrace = "proxy-trace-1"
	cl := service.NewClient(rsrv.URL)
	cl.Trace = clientTrace
	info, err := cl.Open(fastOpen(11))
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, cl, info.ID, 2)

	// The client's id crossed the proxy hop into the backend's span ring.
	tr, err := m1.Trace(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	saw := false
	for _, sp := range tr.Spans {
		if sp.Trace == clientTrace && sp.Stage == obs.StageResample {
			saw = true
		}
	}
	if !saw {
		t.Fatalf("backend span ring has no resample span with the proxied trace id: %+v", tr.Spans)
	}
	if !strings.Contains(backendLog.String(), clientTrace) {
		t.Fatal("backend request log never saw the proxied trace id")
	}
	if !strings.Contains(routerLog.String(), clientTrace) {
		t.Fatal("router request log never saw the client trace id")
	}

	// The response echoes the inbound id (router middleware + the
	// backend echo relayed by copyResponse agree on the value).
	hreq, err := http.NewRequest("GET", rsrv.URL+"/v1/sessions/"+info.ID+"/state", nil)
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set(obs.TraceHeader, "echo-trace-2")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "echo-trace-2" {
		t.Fatalf("response trace header = %q, want the inbound id", got)
	}

	// A request with a garbage id gets a freshly minted one instead.
	hreq, err = http.NewRequest("GET", rsrv.URL+"/v1/sessions/"+info.ID+"/state", nil)
	if err != nil {
		t.Fatal(err)
	}
	const junk = `bad id "with" junk!`
	hreq.Header.Set(obs.TraceHeader, junk)
	resp, err = http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); !obs.ValidTraceID(got) || got == junk {
		t.Fatalf("invalid inbound id was not replaced: %q", got)
	}

	// Drain migration: the migration's own minted trace id appears in
	// the router's structured migration log and in the backend request
	// logs for its export/import control calls.
	if err := rt.Join(srv2.URL); err != nil {
		t.Fatal(err)
	}
	if err := rt.Leave(srv1.URL); err != nil {
		t.Fatal(err)
	}
	migTrace := ""
	for _, line := range strings.Split(routerLog.String(), "\n") {
		if !strings.Contains(line, "session migrated") {
			continue
		}
		var rec struct {
			Session string `json:"session"`
			Trace   string `json:"trace"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable migration log line %q: %v", line, err)
		}
		if rec.Session == info.ID {
			migTrace = rec.Trace
		}
	}
	if migTrace == "" {
		t.Fatalf("router log has no structured migration record for %s:\n%s", info.ID, routerLog.String())
	}
	if !strings.Contains(backendLog.String(), migTrace) {
		t.Fatalf("migration trace %s absent from the backends' request logs", migTrace)
	}

	// The session keeps serving on its new owner.
	mustAnswers(t, cl, info.ID, 1)
}

// TestForced429CarriesTrace forces admission control to refuse a
// request through the router — the worker budget is held so ingests
// queue, and the delta after service.MailboxCap overflows the mailbox — and
// checks the 429 carries the client's trace id in the response header
// and the JSON error envelope, and that the backend logged the refusal
// with the same id and envelope code.
func TestForced429CarriesTrace(t *testing.T) {
	backendLog := &syncWriter{}
	m, srv := tracedBackend(t, service.Config{Workers: 1, BackendID: "b1"}, backendLog)

	rt := New(Config{ProbeInterval: time.Hour})
	t.Cleanup(rt.Close)
	if err := rt.Join(srv.URL); err != nil {
		t.Fatal(err)
	}
	rsrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rsrv.Close)

	req := fastOpen(31)
	cl := service.NewClient(rsrv.URL)
	info, err := cl.Open(req)
	if err != nil {
		t.Fatal(err)
	}

	// Deltas generated at the shape the served corpus and the deltas
	// queued before each leave, as service.Script.Ingest draws them, so
	// each validates against the virtual shape — only the mailbox bound
	// refuses the last.
	corpus, err := service.BuildCorpus(req)
	if err != nil {
		t.Fatal(err)
	}
	var ds []factdb.Delta
	for i := range service.MailboxCap + 1 {
		ds = append(ds, synth.GenerateDelta(synth.Wikipedia.At(corpus.DB.Stats(), ds...), 0.05, 41+int64(i)))
	}

	// Hold the only worker lane: the opportunistic inline apply cannot
	// get a lane, so deltas queue in the mailbox instead of applying.
	release := m.Budget().Acquire()
	defer release()

	for i, d := range ds[:service.MailboxCap] {
		if ing, err := cl.IngestClaims(info.ID, service.IngestRequest{Delta: d}); err != nil || ing.Applied || ing.Queued != i+1 {
			t.Fatalf("ingest %d = %+v, %v; want queued with the budget held", i, ing, err)
		}
	}

	const trace = "trace-429-1"
	body, err := json.Marshal(service.IngestRequest{Delta: ds[service.MailboxCap]})
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest("POST", rsrv.URL+"/v1/sessions/"+info.ID+"/claims", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(obs.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow ingest = %d, want 429: %s", resp.StatusCode, payload)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != trace {
		t.Fatalf("429 trace header = %q, want %q", got, trace)
	}
	if !strings.Contains(string(payload), `"code":"`+service.CodeMailboxFull+`"`) {
		t.Fatalf("429 envelope missing the mailbox_full code: %s", payload)
	}
	if !strings.Contains(string(payload), `"traceId":"`+trace+`"`) {
		t.Fatalf("429 envelope missing the trace id: %s", payload)
	}
	logged := backendLog.String()
	if !strings.Contains(logged, trace) || !strings.Contains(logged, service.CodeMailboxFull) {
		t.Fatalf("backend log missing the refusal's trace id or code:\n%s", logged)
	}
}
