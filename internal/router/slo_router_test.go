package router

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"factcheck/internal/service"
)

// sheddingBackend serves m's whole API, except that /v1/healthz and
// /v1/metrics report an overload controller on the shedding rung with
// one breach: what a backend whose answers breached its SLO under lane
// contention reports, without waiting out wall-clock evaluation windows.
// The router sees a backend only through these two payloads.
func sheddingBackend(t *testing.T, m *service.Manager) *httptest.Server {
	t.Helper()
	api := service.NewServer(m).Handler()
	// relabel serves the real response to r with edit applied to its
	// decoded body.
	relabel := func(w http.ResponseWriter, r *http.Request, body any, edit func()) {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, r)
		if err := json.Unmarshal(rec.Body.Bytes(), body); err != nil {
			t.Errorf("decoding %s: %v", r.URL.Path, err)
		}
		edit()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(body)
	}
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		var h service.Health
		relabel(w, r, &h, func() { h.ControllerMode = "shedding" })
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		var mt service.Metrics
		relabel(w, r, &mt, func() { mt.Controller = &service.ControllerStatus{Mode: "shedding", Breaches: 1} })
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestRouterShedBeforeProxy: a create whose ring owner reports shedding
// is refused at the router with the backend's own 429 + Retry-After
// contract, without burning a proxy hop; creates owned by a healthy
// member still land.
func TestRouterShedBeforeProxy(t *testing.T) {
	rt := New(Config{ProbeInterval: time.Hour})
	t.Cleanup(rt.Close)

	overloaded := service.NewManager(service.Config{Workers: 2})
	healthy := service.NewManager(service.Config{Workers: 2})
	t.Cleanup(func() { overloaded.Shutdown(); healthy.Shutdown() })
	osrv := sheddingBackend(t, overloaded)
	hsrv := httptest.NewServer(service.NewServer(healthy).Handler())
	t.Cleanup(hsrv.Close)

	if err := rt.Join(osrv.URL); err != nil {
		t.Fatal(err)
	}
	if err := rt.Join(hsrv.URL); err != nil {
		t.Fatal(err)
	}
	rt.probeAll() // refresh the cached capacity view

	// Pick one id the ring pins to each backend.
	idFor := func(base string) string {
		for i := 0; i < 10_000; i++ {
			id := "sess-" + strings.Repeat("x", i%3) + time.Now().Format("150405") + "-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
			if owner, ok := rt.Owner(id); ok && owner == base {
				return id
			}
		}
		t.Fatalf("no id resolved to %s", base)
		return ""
	}

	rsrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rsrv.Close)
	client := service.NewClient(rsrv.URL)

	// Create pinned to the shedding owner: refused at the router.
	shedID := idFor(osrv.URL)
	_, err := client.OpenAs(shedID, fastOpen(1))
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("open on shedding owner: err = %v, want HTTP 429", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatal("router's 429 carries no Retry-After hint")
	}
	if !strings.Contains(apiErr.Message, "router:") {
		t.Fatalf("shed happened at the backend, not the router: %q", apiErr.Message)
	}
	if n := overloaded.Len(); n != 0 {
		t.Fatalf("shedding backend still received %d session(s)", n)
	}

	// Create pinned to the healthy owner: unaffected.
	okID := idFor(hsrv.URL)
	if _, err := client.OpenAs(okID, fastOpen(2)); err != nil {
		t.Fatalf("open on healthy owner: %v", err)
	}

	// The fleet view names the rung per member.
	var sawShedding, sawBare bool
	for _, b := range rt.Fleet().Backends {
		switch b.URL {
		case osrv.URL:
			sawShedding = b.ControllerMode == "shedding"
		case hsrv.URL:
			sawBare = b.ControllerMode == ""
		}
	}
	if !sawShedding {
		t.Fatal("fleet view does not report the shedding member")
	}
	if !sawBare {
		t.Fatal("fleet view invents a controller mode for a controller-less member")
	}

	// Fleet aggregates: health reports the worst rung, metrics merge the
	// controller counters.
	if h := rt.AggregateHealth(); h.ControllerMode != "shedding" {
		t.Fatalf("aggregate health controllerMode = %q, want shedding (worst rung)", h.ControllerMode)
	}
	agg := rt.AggregateMetrics(false)
	if agg.Controller == nil {
		t.Fatal("aggregate metrics dropped the controller status")
	}
	if agg.Controller.Mode != "shedding" {
		t.Fatalf("aggregate controller mode = %q, want shedding", agg.Controller.Mode)
	}
	if agg.Controller.Breaches == 0 {
		t.Fatal("aggregate controller lost the breach count")
	}
}
