package router

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"factcheck/internal/edge/edgetest"
	"factcheck/internal/service"
)

// stubBackend is a fake execution backend that answers just enough of
// the API for Router.Join to accept it: /v1/healthz reporting the given
// overload-controller mode and an empty /v1/sessions listing.
func stubBackend(t *testing.T, mode string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(service.Health{ControllerMode: mode})
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(service.SessionList{Live: []string{}, Stored: []string{}})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestRouterErrorEnvelopeContract drives every router-originated error
// path and asserts each refusal carries the same JSON envelope as the
// execution layer, including the router-specific codes
// (session_migrating, no_backends, bad_gateway) and the
// shed-before-proxy 429; then that no row of the route table is
// reachable outside /v1.
func TestRouterErrorEnvelopeContract(t *testing.T) {
	rt := New(Config{ProbeInterval: time.Hour})
	t.Cleanup(rt.Close)
	rsrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rsrv.Close)
	base := rsrv.URL

	// A session flagged mid-migration; no backend needed, the flag is
	// checked before placement resolves.
	rt.mu.Lock()
	rt.migrating["mig"] = true
	rt.mu.Unlock()

	empty := []struct {
		name   string
		method string
		path   string // canonical path, without the /v1 prefix
		body   string
		status int
		code   string
		retry  int
	}{
		{"proxy with no backends", "GET", "/sessions/ghost/state", "", 503, service.CodeNoBackends, 1},
		{"create with no backends", "POST", "/sessions", `{"profile":"wiki","scale":0.1,"seed":3}`, 503, service.CodeNoBackends, 1},
		{"proxy to migrating session", "GET", "/sessions/mig/state", "", 503, service.CodeMigrating, 1},
		{"create pinned to migrating id", "POST", "/sessions", `{"id":"mig"}`, 503, service.CodeMigrating, 1},
		{"create malformed body", "POST", "/sessions", "{not json", 400, service.CodeBadRequest, 0},
		{"proxied export refused", "GET", "/sessions/ghost/export", "", 400, service.CodeBadRequest, 0},
		{"proxied import refused", "POST", "/sessions/ghost/import", "{}", 400, service.CodeBadRequest, 0},
		{"fleet join malformed body", "POST", "/fleet/join", "{not json", 400, service.CodeBadRequest, 0},
		{"fleet leave malformed body", "POST", "/fleet/leave", "{not json", 400, service.CodeBadRequest, 0},
		{"fleet join unreachable backend", "POST", "/fleet/join", `{"url":"http://127.0.0.1:1"}`, 502, service.CodeBadGateway, 0},
		{"fleet leave unknown backend", "POST", "/fleet/leave", `{"url":"http://127.0.0.1:1"}`, 502, service.CodeBadGateway, 0},
	}
	provoked := map[string]bool{}
	for _, tc := range empty {
		provoked[tc.code] = true
		t.Run(tc.name, func(t *testing.T) {
			resp := edgetest.Do(t, base, tc.method, "/v1"+tc.path, tc.body)
			edgetest.AssertEnvelope(t, resp, tc.status, tc.code, tc.retry)
		})
	}

	edgetest.AssertNoBareRoutes(t, base, rt.routes())
	edgetest.AssertBodyLimit(t, base, "/v1/sessions")

	edgetest.AssertTraceEcho(t, base, "/v1/sessions/ghost/state")

	// A backend's refusal crosses the proxy hop intact: the 404 envelope
	// carries its code and the trace id the router forwarded.
	t.Run("proxied unknown session", func(t *testing.T) {
		_, c, _ := newFleet(t, 1, nil)
		resp := edgetest.Do(t, c.BaseURL, "GET", "/v1/sessions/ghost/state", "")
		edgetest.AssertEnvelope(t, resp, 404, service.CodeNotFound, 0)
	})

	// Shed-before-proxy: the fleet's only member reports its overload
	// controller on the shedding rung, so the router refuses the create
	// itself with the backend's own 429 contract.
	shed := stubBackend(t, "shedding")
	if err := rt.Join(shed.URL); err != nil {
		t.Fatalf("join shedding stub: %v", err)
	}
	t.Run("create to shedding owner", func(t *testing.T) {
		resp := edgetest.Do(t, base, "POST", "/v1/sessions", `{"profile":"wiki","scale":0.1,"seed":5}`)
		edgetest.AssertEnvelope(t, resp, 429, service.CodeShedding, 1)
	})

	// Dead owners: a fleet whose members joined healthy and then
	// vanished. The create path marks each down after its failed
	// forward and gives up with 502 once its attempts are spent.
	t.Run("create with dead owners", func(t *testing.T) {
		rt2 := New(Config{ProbeInterval: time.Hour})
		t.Cleanup(rt2.Close)
		rsrv2 := httptest.NewServer(rt2.Handler())
		t.Cleanup(rsrv2.Close)
		a, b := stubBackend(t, ""), stubBackend(t, "")
		if err := rt2.Join(a.URL); err != nil {
			t.Fatal(err)
		}
		if err := rt2.Join(b.URL); err != nil {
			t.Fatal(err)
		}
		a.Close()
		b.Close()
		resp := edgetest.Do(t, rsrv2.URL, "POST", "/v1/sessions", `{"profile":"wiki","scale":0.1,"seed":7}`)
		edgetest.AssertEnvelope(t, resp, 502, service.CodeBadGateway, 0)
	})

	// The rows without a sentinel are refusals written without a service
	// error — this layer's; the service contract test provokes the rest.
	for _, r := range service.Refusals {
		if r.Err == nil && !provoked[r.Code] {
			t.Errorf("no case provokes the %s row", r.Code)
		}
	}
}
