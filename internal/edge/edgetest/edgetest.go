// Package edgetest holds the wire-level assertions the contract tests
// of both serving binaries share. The envelope, the trace echo and the
// /v1 mount point are promises of the wire format, not of the Go
// client, so everything here speaks raw net/http.
package edgetest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"factcheck/internal/edge"
	"factcheck/internal/obs"
)

// Do issues one raw HTTP request, header given as name, value pairs (a
// pair with an empty value is not sent); the response body is closed
// when the test ends.
func Do(t testing.TB, base, method, path, body string, header ...string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(header); i += 2 {
		if header[i+1] != "" {
			req.Header.Set(header[i], header[i+1])
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// AssertEnvelope checks one error response end to end: status, a body
// that is exactly the JSON error envelope, its stable code, the trace
// id matching the response header, and the Retry-After header mirroring
// the envelope hint. The body is left readable from its start, for a
// client's own decoding.
func AssertEnvelope(t testing.TB, resp *http.Response, status int, code string, retryAfter int) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status = %d, want %d", resp.StatusCode, status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	var body edge.ErrorBody
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		t.Fatalf("response %q is not the error envelope: %v", raw, err)
	}
	echo := resp.Header.Get(obs.TraceHeader)
	want := edge.ErrorInfo{Code: code, Message: body.Error.Message, RetryAfter: retryAfter, TraceID: echo}
	if body.Error != want || want.Message == "" || echo == "" {
		t.Fatalf("envelope = %+v, want %+v with a message and the response's trace id", body.Error, want)
	}
	hint := ""
	if retryAfter > 0 {
		hint = strconv.Itoa(retryAfter)
	}
	if got := resp.Header.Get("Retry-After"); got != hint {
		t.Fatalf("Retry-After header = %q, want %q (must mirror the envelope)", got, hint)
	}
}

// AssertTraceEcho checks that every request echoes a trace id, the
// uncounted probe endpoints included: a valid client id is honored,
// anything else (none, or metacharacters) replaced with a minted one.
// sessionPath is a session route the invalid id is sent to.
func AssertTraceEcho(t *testing.T, base, sessionPath string) {
	for _, tc := range []struct {
		name, path, sent string
		honored          bool
	}{
		{"healthz mints", "/v1/healthz", "", false},
		{"metrics mints", "/v1/metrics", "", false},
		{"valid id honored", "/v1/healthz", "client-trace.1", true},
		{"invalid id replaced", sessionPath, "bad id\"", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := Do(t, base, http.MethodGet, tc.path, "", obs.TraceHeader, tc.sent).Header.Get(obs.TraceHeader)
			if !obs.ValidTraceID(got) || (got == tc.sent) != tc.honored {
				t.Fatalf("sent trace %q, response echoes %q (honored = %v)", tc.sent, got, tc.honored)
			}
		})
	}
}

// AssertBodyLimit declares, on a raw connection, a POST body one byte
// over edge.MaxBodyBytes, sends none of it, and asserts the 413
// envelope: the edge refuses on the declaration, before any handler
// could wait for the bytes.
func AssertBodyLimit(t testing.TB, base, path string) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: edge\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, edge.MaxBodyBytes+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	AssertEnvelope(t, resp, http.StatusRequestEntityTooLarge, edge.CodeBodyTooLarge, 0)
}

// AssertNoBareRoutes walks a route table and asserts each row exists
// under /v1 only: its bare path, wildcards filled in, is answered by
// the mux's own 404 — no handler ran — and carries neither header the
// retired unversioned aliases stamped.
func AssertNoBareRoutes(t testing.TB, base string, routes []edge.Route) {
	t.Helper()
	fill := strings.NewReplacer("{id}", "x", "{rest...}", "state")
	for _, rt := range routes {
		method := rt.Method
		if method == "" {
			method = http.MethodGet
		}
		path := fill.Replace(rt.Path)
		resp := Do(t, base, method, path, "")
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound || string(body) != "404 page not found\n" {
			t.Fatalf("%s %s answered %d %q: the route must exist under /v1 only", method, path, resp.StatusCode, body)
		}
		for _, h := range []string{"Deprecation", "Link"} {
			if v := resp.Header.Get(h); v != "" {
				t.Fatalf("%s %s carries %s: %s on a path that must not exist at all", method, path, h, v)
			}
		}
	}
}
