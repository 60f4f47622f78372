package service

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// flakyHandler drops the first fail connections on the floor (a
// transport-level failure, as a crashing or restarting server would
// produce) and serves the wrapped handler afterwards.
func flakyHandler(fail int64, next http.Handler) http.Handler {
	var seen atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) <= fail {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("test server does not support hijacking")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				panic(err)
			}
			conn.Close() // slam the connection: the client sees EOF/reset
			return
		}
		next.ServeHTTP(w, r)
	})
}

func retryTestPolicy(attempts int) *RetryPolicy {
	return &RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 7}
}

func TestClientRetriesTransientConnectionErrors(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	srv := httptest.NewServer(flakyHandler(2, NewServer(m).Handler()))
	defer srv.Close()

	client := NewClient(srv.URL)
	client.Retry = retryTestPolicy(4)
	h, err := client.Health()
	if err != nil {
		t.Fatalf("health with retry: %v", err)
	}
	if h.WorkersTotal != 1 {
		t.Fatalf("health = %+v", h)
	}
	if got := client.Retries(); got != 2 {
		t.Fatalf("Retries() = %d, want 2", got)
	}
}

func TestClientRetryGivesUpAfterMaxAttempts(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	srv := httptest.NewServer(flakyHandler(1_000_000, NewServer(m).Handler()))
	defer srv.Close()

	client := NewClient(srv.URL)
	client.Retry = retryTestPolicy(3)
	if _, err := client.Health(); err == nil {
		t.Fatal("expected an error once every attempt failed")
	}
	if got := client.Retries(); got != 2 {
		t.Fatalf("Retries() = %d, want 2 (attempts 2 and 3)", got)
	}
}

func TestClientRetryOffByDefault(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	srv := httptest.NewServer(flakyHandler(1, NewServer(m).Handler()))
	defer srv.Close()

	client := NewClient(srv.URL)
	if _, err := client.Health(); err == nil {
		t.Fatal("default client must not retry a dropped connection")
	}
	if got := client.Retries(); got != 0 {
		t.Fatalf("Retries() = %d, want 0", got)
	}
	// The next request goes through: the failure was per-connection.
	if _, err := client.Health(); err != nil {
		t.Fatalf("second request: %v", err)
	}
}

func TestClientDoesNotRetryHTTPErrors(t *testing.T) {
	// A 404 is a server decision, not a transport failure: replaying a
	// non-idempotent request the server already saw would be unsafe, so
	// HTTP-level errors must pass through untouched.
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	srv := httptest.NewServer(NewServer(m).Handler())
	defer srv.Close()

	client := NewClient(srv.URL)
	client.Retry = retryTestPolicy(5)
	if _, err := client.State("no-such-session", false); err == nil {
		t.Fatal("expected a 404 error")
	}
	if got := client.Retries(); got != 0 {
		t.Fatalf("Retries() = %d, want 0 for an HTTP-level error", got)
	}
}

// applyThenDropHandler serves the first POST whose path ends in suffix
// on the real handler via a recorder — so the manager fully applies it
// — then slams the connection without sending the response: the
// worst-case transport failure, committed server-side but lost on the
// wire. Every other request passes through.
func applyThenDropHandler(suffix string, next http.Handler) http.Handler {
	var done atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, suffix) && done.CompareAndSwap(false, true) {
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			if rec.Code/100 != 2 {
				panic("apply-then-drop: the dropped request was not applied")
			}
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("test server does not support hijacking")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				panic(err)
			}
			conn.Close()
			return
		}
		next.ServeHTTP(w, r)
	})
}

func TestAnswerRetryAfterAppliedResponseLostIsIdempotent(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	srv := httptest.NewServer(applyThenDropHandler("/answer", NewServer(m).Handler()))
	defer srv.Close()

	client := NewClient(srv.URL)
	client.Retry = retryTestPolicy(4)
	info, err := client.Open(fastOpen("wiki", 0.08, 9))
	if err != nil {
		t.Fatal(err)
	}
	next, err := client.Next(info.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if next.Seq != 0 {
		t.Fatalf("fresh session Seq = %d, want 0", next.Seq)
	}

	// The first attempt is applied and then dropped; the retry must be
	// recognised as a duplicate and served the stored response instead
	// of a 409 — and the transcript must hold the answer exactly once.
	seq := next.Seq
	st, err := client.Answer(info.ID, AnswerRequest{Claim: next.Candidates[0].Claim, Oracle: true, Seq: &seq})
	if err != nil {
		t.Fatalf("retried answer: %v", err)
	}
	if client.Retries() == 0 {
		t.Fatal("the drop handler never forced a retry")
	}
	if st.Labeled != 1 {
		t.Fatalf("labeled = %d, want 1", st.Labeled)
	}
	snap, err := client.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Elicitations) != 1 {
		t.Fatalf("transcript holds %d elicitations after the retry, want exactly 1: %+v",
			len(snap.Elicitations), snap.Elicitations)
	}

	// The session continues normally from the response's sequence.
	next, err = client.Next(info.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if next.Seq != st.Seq || next.Seq != 1 {
		t.Fatalf("sequence after retry: next=%d state=%d, want 1", next.Seq, st.Seq)
	}
	seq2 := next.Seq
	if _, err := client.Answer(info.ID, AnswerRequest{Claim: next.Candidates[0].Claim, Oracle: true, Seq: &seq2}); err != nil {
		t.Fatalf("follow-up answer: %v", err)
	}

	// A genuinely stale sequence (not a duplicate of the last applied
	// request) is a conflict, not a silent replay.
	stale := 0
	_, err = client.Answer(info.ID, AnswerRequest{Claim: 0, Verdict: true, Seq: &stale})
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("stale sequence: want HTTP 409, got %v", err)
	}
}

// TestIngestNotResentAfterAppliedResponseLost: an ingest the server
// applied before the connection broke carries no key that would let the
// server recognise it again, so the client returns the transport error
// instead of re-sending it, and the delta lands once. A dial failure
// reached no server, and the same ingest is retried through it.
func TestIngestNotResentAfterAppliedResponseLost(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown()
	srv := httptest.NewServer(applyThenDropHandler("/claims", NewServer(m).Handler()))
	defer srv.Close()

	client := NewClient(srv.URL)
	client.Retry = retryTestPolicy(4)
	sc := &Script{Client: client}
	info, err := sc.Open("", fastOpen("wiki", 0.08, 9))
	if err != nil {
		t.Fatal(err)
	}
	var transport *url.Error
	if _, _, err := sc.Ingest(0.1, 61); !errors.As(err, &transport) {
		t.Fatalf("ingest over a dropped connection: %v, want the transport error", err)
	}
	if got := client.Retries(); got != 0 {
		t.Fatalf("Retries() = %d, want 0: the ingest was re-sent", got)
	}
	snap, err := client.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for _, e := range snap.Elicitations {
		if e.Ingest != nil {
			records++
		}
	}
	if records != 1 {
		t.Fatalf("transcript holds %d ingest records, want exactly 1", records)
	}

	dead := NewClient("http://127.0.0.1:1")
	dead.Retry = retryTestPolicy(3)
	if _, err := dead.IngestClaims("x", IngestRequest{}); !errors.As(err, &transport) {
		t.Fatalf("ingest to a closed port: %v, want the transport error", err)
	}
	if got := dead.Retries(); got != 2 {
		t.Fatalf("Retries() after dial failures = %d, want 2", got)
	}
}

// TestClientRetryAfterStatusTable pins the replay contract across the
// backpressure statuses: 503 (full/drain/migration) and 429 (shed by
// admission control) replay retry-safe requests when — and only when —
// a Retry-After hint accompanies them; session-creating posts are never
// replayed no matter what the server hints; every other status passes
// through on the first answer. Retries() counts every replay.
func TestClientRetryAfterStatusTable(t *testing.T) {
	cases := []struct {
		name       string
		method     string
		path       string
		status     int
		retryAfter string // Retry-After header on the failure; "" = absent
		wantHits   int64
		wantErr    bool
	}{
		{"503 with hint replays a read", http.MethodGet, "/sessions/x/state", http.StatusServiceUnavailable, "1", 2, false},
		{"429 with hint replays a read", http.MethodGet, "/sessions/x/state", http.StatusTooManyRequests, "1", 2, false},
		{"429 with hint replays a delete", http.MethodDelete, "/sessions/x", http.StatusTooManyRequests, "1", 2, false},
		{"429 with hint replays an answer", http.MethodPost, "/sessions/x/answer", http.StatusTooManyRequests, "1", 2, false},
		{"503 with hint replays an answer", http.MethodPost, "/sessions/x/answer", http.StatusServiceUnavailable, "1", 2, false},
		{"429 with hint never replays open", http.MethodPost, "/sessions", http.StatusTooManyRequests, "1", 1, true},
		{"503 with hint never replays open", http.MethodPost, "/sessions", http.StatusServiceUnavailable, "1", 1, true},
		{"429 with hint never replays import", http.MethodPost, "/sessions/x/import", http.StatusTooManyRequests, "1", 1, true},
		{"429 without hint fails fast", http.MethodGet, "/sessions/x/state", http.StatusTooManyRequests, "", 1, true},
		{"503 without hint fails fast", http.MethodGet, "/sessions/x/state", http.StatusServiceUnavailable, "", 1, true},
		{"404 with hint is not backpressure", http.MethodGet, "/sessions/x/state", http.StatusNotFound, "1", 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if hits.Add(1) == 1 {
					if tc.retryAfter != "" {
						w.Header().Set("Retry-After", tc.retryAfter)
					}
					w.WriteHeader(tc.status)
					io.WriteString(w, `{"error":"busy"}`)
					return
				}
				w.WriteHeader(http.StatusOK)
				io.WriteString(w, "{}")
			}))
			defer srv.Close()

			client := NewClient(srv.URL)
			client.Retry = retryTestPolicy(4)
			err := client.do(tc.method, tc.path, nil, nil)
			if tc.wantErr {
				var apiErr *APIError
				if !errors.As(err, &apiErr) || apiErr.Status != tc.status {
					t.Fatalf("err = %v, want APIError with status %d", err, tc.status)
				}
			} else if err != nil {
				t.Fatalf("replayed request failed: %v", err)
			}
			if got := hits.Load(); got != tc.wantHits {
				t.Fatalf("server saw %d requests, want %d", got, tc.wantHits)
			}
			if got := client.Retries(); got != tc.wantHits-1 {
				t.Fatalf("Retries() = %d, want %d", got, tc.wantHits-1)
			}
		})
	}
}

// TestClientRetryAfterCeilingIsMaxDelay pins the hint ceiling: a server
// demanding a pathological Retry-After (here a minute) cannot stall the
// client past the policy's MaxDelay.
func TestClientRetryAfterCeilingIsMaxDelay(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "60")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error":"overloaded"}`)
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "{}")
	}))
	defer srv.Close()

	client := NewClient(srv.URL)
	client.Retry = &RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 25 * time.Millisecond, Seed: 7}
	start := time.Now()
	if err := client.do(http.MethodGet, "/sessions/x/state", nil, nil); err != nil {
		t.Fatalf("replay under a capped hint: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("client waited %v — the 60s Retry-After hint was not capped by MaxDelay", elapsed)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2", got)
	}
}
