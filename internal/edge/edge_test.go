package edge

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"

	"factcheck/internal/obs"
)

// TestMount drives one small route table through every rule the edge
// applies on behalf of both binaries: rows served under /v1 and nowhere
// else, trace honor-or-mint into header, request header and context,
// counting of named endpoints only, and the one log line.
func TestMount(t *testing.T) {
	var logged bytes.Buffer
	counts := map[string][2]int{} // endpoint -> {requests, failures}
	var seenTrace, seenForwarded string
	h := Mount([]Route{
		{Method: "GET", Path: "/things/{id}", Endpoint: "thing", Handler: func(w http.ResponseWriter, r *http.Request) {
			seenTrace = obs.TraceID(r.Context())
			seenForwarded = r.Header.Get(obs.TraceHeader)
			WriteJSON(w, http.StatusOK, map[string]bool{"flag": BoolQuery(r, "flag")})
		}},
		{Method: "POST", Path: "/new", Endpoint: "new", Handler: func(w http.ResponseWriter, _ *http.Request) {
			WriteError(w, http.StatusConflict, "taken", "already there", 2)
		}},
		{Path: "/healthz", Handler: func(w http.ResponseWriter, _ *http.Request) {
			WriteJSON(w, http.StatusOK, "ok")
		}},
	}, obs.NewLogger(&logged, "edge-test", slog.LevelDebug), func(endpoint string, failed bool) {
		c := counts[endpoint]
		c[0]++
		if failed {
			c[1]++
		}
		counts[endpoint] = c
	}, slog.String("backend", "b1"))

	cases := []struct {
		name, method, path, sent string
		status                   int
		honored                  bool
		body                     string // substring of the response body
		msg, endpoint, code      string // the log record
	}{
		{"v1 route", "GET", "/v1/things/7?flag=1", "abc-1", 200, true, `"flag":true`, "request served", "thing", ""},
		{"flag off, trace minted", "GET", "/v1/things/7?flag=0", "", 200, false, `"flag":false`, "request served", "thing", ""},
		{"invalid trace replaced", "GET", "/v1/things/7", "no spaces", 200, false, `"flag":false`, "request served", "thing", ""},
		{"refusal", "POST", "/v1/new", "abc-2", 409, true, `"code":"taken"`, "request refused", "new", "taken"},
		{"bare path is not mounted", "GET", "/things/7", "", 404, false, "404 page not found", "request refused", "", ""},
		{"probe row, any method", "HEAD", "/v1/healthz", "", 200, false, "", "request served", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			logged.Reset()
			seenTrace, seenForwarded = "", ""
			req := httptest.NewRequest(tc.method, tc.path, nil)
			if tc.sent != "" {
				req.Header.Set(obs.TraceHeader, tc.sent)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)

			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d", rec.Code, tc.status)
			}
			if !strings.Contains(rec.Body.String(), tc.body) {
				t.Fatalf("body %q lacks %q", rec.Body.String(), tc.body)
			}
			trace := rec.Header().Get(obs.TraceHeader)
			if !obs.ValidTraceID(trace) || (trace == tc.sent) != tc.honored {
				t.Fatalf("sent trace %q, echoed %q (honored = %v)", tc.sent, trace, tc.honored)
			}
			if tc.endpoint == "thing" && (seenTrace != trace || seenForwarded != trace) {
				t.Fatalf("handler saw trace %q in its context and %q on the request, want %q", seenTrace, seenForwarded, trace)
			}
			if tc.code != "" {
				var env ErrorBody
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
					t.Fatal(err)
				}
				want := ErrorInfo{Code: tc.code, Message: "already there", RetryAfter: 2, TraceID: trace}
				if env.Error != want || rec.Header().Get("Retry-After") != "2" {
					t.Fatalf("envelope = %+v (Retry-After %q), want %+v", env.Error, rec.Header().Get("Retry-After"), want)
				}
			}

			var line map[string]any
			if err := json.Unmarshal(logged.Bytes(), &line); err != nil {
				t.Fatalf("log output %q is not one JSON record: %v", logged.String(), err)
			}
			for k, want := range map[string]any{
				"msg": tc.msg, "endpoint": tc.endpoint, "code": tc.code, "trace": trace,
				"status": float64(tc.status), "method": tc.method, "backend": "b1",
			} {
				if line[k] != want {
					t.Fatalf("log record %s = %v, want %v (%s)", k, line[k], want, logged.String())
				}
			}
		})
	}
	want := map[string][2]int{"thing": {3, 0}, "new": {1, 1}}
	if fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Fatalf("endpoint counts = %v, want %v (unnamed and unmatched rows are not counted)", counts, want)
	}
}

// FuzzMountTraceID: arbitrary bytes as an inbound X-Factcheck-Trace
// never panic the middleware, the id on the response, on the forwarded
// request and in the handler's context is always one obs.ValidTraceID
// accepts, and a valid inbound id comes back unchanged.
func FuzzMountTraceID(f *testing.F) {
	for _, seed := range []string{
		"", "abc-1", "no spaces", "a.b_c-D9", strings.Repeat("f", 64), strings.Repeat("f", 65),
		"id\r\nX-Injected: 1", "id\x00", "\xff\xfe", "ü", `"quoted"`, "{label=\"x\"}",
	} {
		f.Add(seed)
	}
	var ctxTrace, forwarded string
	h := Mount([]Route{{Method: "GET", Path: "/t", Endpoint: "t", Handler: func(w http.ResponseWriter, r *http.Request) {
		ctxTrace, forwarded = obs.TraceID(r.Context()), r.Header.Get(obs.TraceHeader)
		WriteJSON(w, http.StatusOK, "ok")
	}}}, obs.NewLogger(io.Discard, "edge-fuzz", slog.LevelDebug), nil)
	f.Fuzz(func(t *testing.T, sent string) {
		ctxTrace, forwarded = "", ""
		req := httptest.NewRequest("GET", "/v1/t", nil)
		req.Header.Set(obs.TraceHeader, sent)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		trace := rec.Header().Get(obs.TraceHeader)
		if rec.Code != http.StatusOK || !obs.ValidTraceID(trace) || ctxTrace != trace || forwarded != trace {
			t.Fatalf("sent %q: status %d, echoed %q, context %q, forwarded %q", sent, rec.Code, trace, ctxTrace, forwarded)
		}
		if obs.ValidTraceID(sent) && trace != sent {
			t.Fatalf("valid id %q came back as %q", sent, trace)
		}
	})
}

// TestMountBodyLimit: a body over MaxBodyBytes leaves as the 413
// envelope whether it declares its length — the handler never runs — or
// not, in which case the handler's read is cut off at the limit and the
// refusal it writes for that is replaced; a body of exactly the limit
// is served.
func TestMountBodyLimit(t *testing.T) {
	var read int64
	h := Mount([]Route{{Method: "POST", Path: "/new", Endpoint: "new", Handler: func(w http.ResponseWriter, r *http.Request) {
		n, err := io.Copy(io.Discard, r.Body)
		if read = n; err != nil {
			WriteError(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
			return
		}
		WriteJSON(w, http.StatusOK, n)
	}}}, obs.Discard(), nil)
	for _, tc := range []struct {
		name           string
		size, declared int64
		status         int
		read           int64
	}{
		{"at the limit", MaxBodyBytes, MaxBodyBytes, http.StatusOK, MaxBodyBytes},
		{"declared over", MaxBodyBytes + 1, MaxBodyBytes + 1, http.StatusRequestEntityTooLarge, 0},
		{"undeclared over", MaxBodyBytes + 1, -1, http.StatusRequestEntityTooLarge, MaxBodyBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			read = 0
			req := httptest.NewRequest("POST", "/v1/new", io.LimitReader(zeros{}, tc.size))
			req.ContentLength = tc.declared
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.status || read != tc.read {
				t.Fatalf("status %d after reading %d bytes, want %d after %d", rec.Code, read, tc.status, tc.read)
			}
			var env ErrorBody
			if tc.status != http.StatusOK && (json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error.Code != CodeBodyTooLarge || env.Error.Message == "") {
				t.Fatalf("body %q is not the %s envelope", rec.Body.String(), CodeBodyTooLarge)
			}
		})
	}
}

// zeros is an endless body that costs no memory.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestServe pins what the smoke scripts parse: the announce line with
// the bound address, a served request, and the drain/stopped tail after
// SIGTERM, with onStop run in between.
func TestServe(t *testing.T) {
	stdout := os.Stdout
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = pw
	defer func() { os.Stdout = stdout }()

	stopped := false
	done := make(chan error, 1)
	go func() {
		done <- Serve("edge-test", "127.0.0.1:0", "k=v", Mount([]Route{
			{Method: "GET", Path: "/ping", Handler: func(w http.ResponseWriter, _ *http.Request) { WriteJSON(w, http.StatusOK, "pong") }},
		}, obs.Discard(), nil), func() { stopped = true })
		pw.Close()
	}()

	lines := bufio.NewScanner(pr)
	if !lines.Scan() {
		t.Fatal("no announce line")
	}
	var base string
	if _, err := fmt.Sscanf(lines.Text(), "edge-test listening on %s (k=v)", &base); err != nil {
		t.Fatalf("announce line %q: %v", lines.Text(), err)
	}
	resp, err := http.Get(base + "/v1/ping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("served request answered %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var tail []string
	for lines.Scan() {
		tail = append(tail, lines.Text())
	}
	if got := strings.Join(tail, "|"); got != "edge-test: terminated, draining|edge-test: stopped" || !stopped {
		t.Fatalf("shutdown tail = %q, onStop ran = %v", got, stopped)
	}

	if err := Serve("edge-test", "not-an-address", "", nil, nil); err == nil {
		t.Fatal("listening on a malformed address reported success")
	}
}
