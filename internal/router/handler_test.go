package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"factcheck/internal/edge/edgetest"
	"factcheck/internal/service"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestFleetHTTPControlPlane drives the /fleet control plane and the
// fleet views over HTTP — the surface operators (and TestRouterSmoke)
// use, as opposed to the Go-level Join/Leave the other tests call.
func TestFleetHTTPControlPlane(t *testing.T) {
	rt, c, _ := newFleet(t, 2, nil)
	base := c.BaseURL

	info, err := c.Open(fastOpen(31))
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, c, info.ID, 1)

	// GET /sessions through the router: the fleet-union listing.
	sl, err := c.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range sl.Live {
		if id == info.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("router listing misses the live session: %+v", sl)
	}

	// GET /fleet: both backends up, both in the ring.
	resp, err := http.Get(base + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var fleet FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(fleet.Backends) != 2 || len(fleet.RingMembers) != 2 || fleet.Migrating != 0 {
		t.Fatalf("fleet = %+v, want 2 up backends and no migrations", fleet)
	}

	// The migration internals must not be reachable through the proxy.
	for _, rest := range []string{"export", "import"} {
		resp, err := http.Get(base + "/v1/sessions/" + info.ID + "/" + rest)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("proxied /%s answered %d, want 400", rest, resp.StatusCode)
		}
	}

	// Join a third backend over HTTP; the ring re-agrees.
	m3 := service.NewManager(service.Config{Workers: 2})
	srv3 := httptest.NewServer(service.NewServer(m3).Handler())
	t.Cleanup(func() { srv3.Close(); m3.Shutdown() })
	if resp := postJSON(t, base+"/v1/fleet/join", fleetRequest{URL: srv3.URL}); resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet/join answered %d", resp.StatusCode)
	}
	if got := len(rt.Fleet().RingMembers); got != 3 {
		t.Fatalf("ring has %d members after join, want 3", got)
	}

	// Control-plane error paths: malformed body, unreachable backend,
	// draining a stranger.
	resp, err = http.Post(base+"/v1/fleet/join", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed join answered %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, base+"/v1/fleet/join", fleetRequest{URL: "http://127.0.0.1:1"}); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("unreachable join answered %d, want 502", resp.StatusCode)
	}
	if resp := postJSON(t, base+"/v1/fleet/leave", fleetRequest{URL: "http://127.0.0.1:1"}); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("unknown leave answered %d, want 502", resp.StatusCode)
	}

	// Drain the new backend over HTTP and keep serving.
	if resp := postJSON(t, base+"/v1/fleet/leave", fleetRequest{URL: srv3.URL}); resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet/leave answered %d", resp.StatusCode)
	}
	if got := len(rt.Fleet().RingMembers); got != 2 {
		t.Fatalf("ring has %d members after leave, want 2", got)
	}
	mustAnswers(t, c, info.ID, 1)

	// The aggregate views over HTTP; ?buckets reads as a boolean.
	for _, tc := range []struct {
		path    string
		buckets bool
	}{{"/v1/healthz", false}, {"/v1/metrics?buckets=1", true}, {"/v1/metrics?buckets=0", false}} {
		resp, err := http.Get(base + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var m service.Metrics
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("GET %s answered %d (%v)", tc.path, resp.StatusCode, err)
		}
		if got := len(m.AnswerLatencyBuckets) > 0; got != tc.buckets {
			t.Fatalf("GET %s: latency buckets present = %v, want %v", tc.path, got, tc.buckets)
		}
	}
}

// TestProbesMarkDeadBackendDown: with real probing enabled, a backend
// that stops answering /healthz is marked down after failAfter
// consecutive failures and drops out of the ring — and is NOT rejoined
// automatically when it answers again (its arcs were remapped; a stale
// copy must not resurrect).
func TestProbesMarkDeadBackendDown(t *testing.T) {
	rt := New(Config{ProbeInterval: 10 * time.Millisecond})
	t.Cleanup(rt.Close)
	m := service.NewManager(service.Config{Workers: 1})
	defer m.Shutdown()
	srv := httptest.NewServer(service.NewServer(m).Handler())
	defer srv.Close()
	if err := rt.Join(srv.URL); err != nil {
		t.Fatal(err)
	}

	srv.CloseClientConnections()
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		fleet := rt.Fleet()
		if len(fleet.Backends) == 1 && !fleet.Backends[0].Up {
			if len(fleet.RingMembers) != 0 {
				t.Fatalf("down backend still in the ring: %+v", fleet)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probes never marked the dead backend down: %+v", fleet)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok := rt.Owner("any"); ok {
		t.Fatal("an empty ring still names an owner")
	}
}

// TestDrainRollbackOnImportConflict: when the destination refuses an
// import (here: it already holds a live session under the same id),
// the snapshot is imported back onto the source, which keeps serving —
// a failed migration must leave the session alive somewhere, never
// frozen behind an exported mark. The drain tries the move once: a
// failed session is not retried by the reconcile's later rounds, and
// the error counts it once.
func TestDrainRollbackOnImportConflict(t *testing.T) {
	rt, c, backends := newFleet(t, 2, nil)
	info, err := c.Open(fastOpen(33))
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, c, info.ID, 1)

	ownerBase, ok := rt.Owner(info.ID)
	if !ok {
		t.Fatal("no owner")
	}
	owner := byBase(t, backends, ownerBase)
	var other *fleetBackend
	for _, b := range backends {
		if b.srv.URL != ownerBase {
			other = b
		}
	}

	// Manufacture the conflict: a live session under the same id on the
	// only possible destination.
	if _, err := other.manager.OpenAs(info.ID, fastOpen(34)); err != nil {
		t.Fatal(err)
	}

	err = rt.Leave(ownerBase)
	if err == nil {
		t.Fatal("drain with a conflicting destination reported success")
	}
	t.Logf("drain failed as expected: %v", err)
	if !strings.Contains(err.Error(), "with 1 failed migration") {
		t.Fatalf("drain error %q, want it to count 1 failed migration", err)
	}

	// One export → import → rollback cycle, not one per round.
	sc := service.NewClient(owner.srv.URL)
	for _, hop := range []struct {
		c        *service.Client
		endpoint string
	}{{sc, "export"}, {service.NewClient(other.srv.URL), "import"}} {
		m, err := hop.c.Metrics(false)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Endpoints[hop.endpoint]; got.Requests != 1 {
			t.Fatalf("%s saw %+v on %s, want exactly 1 request", hop.c.BaseURL, got, hop.endpoint)
		}
	}

	// Rollback: the source still serves the session (reached directly —
	// the drain removed it from the fleet).
	if _, err := state(sc, info.ID, false); err != nil {
		t.Fatalf("source does not serve the session after rollback: %v", err)
	}
}

// TestMigrateSkipsVanishedSession: a session that disappears between
// the drain listing and its migration (deleted, idle-evicted) is not
// an error — export's 404 means there is nothing left to move.
func TestMigrateSkipsVanishedSession(t *testing.T) {
	rt, c, backends := newFleet(t, 2, nil)
	info, err := c.Open(fastOpen(35))
	if err != nil {
		t.Fatal(err)
	}
	ownerBase, _ := rt.Owner(info.ID)
	owner := byBase(t, backends, ownerBase)

	// An id the ring maps AWAY from the owner, so migrate actually
	// attempts an export (same-owner ids return before exporting).
	ghost := ""
	for i := 0; i < 256; i++ {
		id := fmt.Sprintf("ghost-%d", i)
		if o, _ := rt.Owner(id); o != ownerBase {
			ghost = id
			break
		}
	}
	if ghost == "" {
		t.Fatal("no id mapping off the owner")
	}
	rt.mu.Lock()
	from := rt.backends[ownerBase]
	rt.mu.Unlock()
	if err := rt.migrate(ghost, from); err != nil {
		t.Fatalf("migrating a vanished session: %v", err)
	}
	// And the short-circuit: an id already on its owner does not move.
	if err := rt.migrate(info.ID, from); err != nil {
		t.Fatalf("migrating an already-placed session: %v", err)
	}
	if _, err := state(c, info.ID, false); err != nil {
		t.Fatal(err)
	}
	_ = owner
}

// TestStaleOwnerAnswersMigrating: a 410 from the owner placement still
// names (a drained backend joined back before reconcile) answers 503
// session_migrating with Retry-After, not 502.
func TestStaleOwnerAnswersMigrating(t *testing.T) {
	m := service.NewManager(service.Config{Workers: 1})
	t.Cleanup(m.Shutdown)
	real := service.NewServer(m).Handler()
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/sessions/") {
			service.Refuse(w, service.CodeMigrated, "stub: session exported")
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(stub.Close)
	rt := New(Config{ProbeInterval: time.Hour})
	t.Cleanup(rt.Close)
	if err := rt.Join(stub.URL); err != nil {
		t.Fatal(err)
	}
	rsrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rsrv.Close)
	edgetest.AssertEnvelope(t, edgetest.Do(t, rsrv.URL, http.MethodGet, "/v1/sessions/stale/state", ""),
		http.StatusServiceUnavailable, service.CodeMigrating, 1)
}

// TestCreatePaths covers the create edge cases: a caller-pinned id, an
// empty body (all defaults), a create aimed at a mid-migration id, and
// an empty fleet.
func TestCreatePaths(t *testing.T) {
	rt, c, _ := newFleet(t, 1, nil)
	base := c.BaseURL

	// Caller-pinned id passes through to the execution layer.
	resp := postJSON(t, base+"/v1/sessions", map[string]any{
		"id": "caller-pinned", "profile": "wiki", "scale": 0.1, "seed": 41,
		"candidatePool": 6, "communities": 3,
		"em": map[string]any{"burnIn": 4, "samples": 8, "incBurnIn": 2, "incSamples": 4, "emIters": 1, "hypoBurn": 1, "hypoSamples": 2},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("pinned create answered %d", resp.StatusCode)
	}
	if _, err := state(c, "caller-pinned", false); err != nil {
		t.Fatalf("pinned session not addressable: %v", err)
	}

	// Malformed JSON is a 400, not a proxied confusion.
	r2, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed create answered %d, want 400", r2.StatusCode)
	}

	// A create addressed to a mid-migration id is backpressured with
	// Retry-After, same as any other request for it.
	rt.mu.Lock()
	rt.migrating["caller-pinned"] = true
	rt.mu.Unlock()
	resp = postJSON(t, base+"/v1/sessions", map[string]any{"id": "caller-pinned"})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("create of a migrating id answered %d (Retry-After %q), want 503 + Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if r3, err := http.Get(base + "/v1/sessions/caller-pinned/state"); err != nil {
		t.Fatal(err)
	} else {
		r3.Body.Close()
		if r3.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request for a migrating id answered %d, want 503", r3.StatusCode)
		}
	}
	rt.mu.Lock()
	delete(rt.migrating, "caller-pinned")
	rt.mu.Unlock()

	// An empty fleet can place nothing.
	empty := New(Config{ProbeInterval: time.Hour})
	t.Cleanup(empty.Close)
	esrv := httptest.NewServer(empty.Handler())
	t.Cleanup(esrv.Close)
	r4, err := http.Post(esrv.URL+"/v1/sessions", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create on an empty fleet answered %d, want 503", r4.StatusCode)
	}
}

// TestCreateFailsOverToLiveBackend is the create half of failover: the
// ring owner of a new session id is dead, so the forward meets a
// transport error, marks the owner down and re-resolves — the create
// lands on a live backend, the session is addressable through the
// router, and the fleet view shows the dead member down.
func TestCreateFailsOverToLiveBackend(t *testing.T) {
	rt, c, backends := newFleet(t, 2, nil)
	dead := backends[0]
	id := ""
	for i := 0; id == ""; i++ {
		if owner, _ := rt.Owner(fmt.Sprintf("failover-%d", i)); owner == dead.srv.URL {
			id = fmt.Sprintf("failover-%d", i)
		}
	}
	dead.srv.CloseClientConnections()
	dead.srv.Close()

	var body map[string]any
	buf, _ := json.Marshal(fastOpen(43))
	if err := json.Unmarshal(buf, &body); err != nil {
		t.Fatal(err)
	}
	body["id"] = id
	resp := postJSON(t, c.BaseURL+"/v1/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create owned by a dead backend answered %d, want 201", resp.StatusCode)
	}
	if owner, _ := rt.Owner(id); owner != backends[1].srv.URL {
		t.Fatalf("session %s placed on %q after failover, want the live %s", id, owner, backends[1].srv.URL)
	}
	mustAnswers(t, c, id, 1)
	for _, b := range rt.Fleet().Backends {
		if b.Up != (b.URL != dead.srv.URL) {
			t.Fatalf("fleet after a create hit the dead owner: %+v", rt.Fleet())
		}
	}
}

// TestCreateForwardsLargeSeed: a session opened through the router is
// the same corpus as the same request sent direct, also for seeds that
// float64 cannot hold — the create path forwards every field but "id"
// as the bytes the client sent.
func TestCreateForwardsLargeSeed(t *testing.T) {
	_, c, backends := newFleet(t, 1, nil)
	req := fastOpen(1<<53 + 1)

	routed, err := c.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	direct := service.NewClient(backends[0].srv.URL)
	plain, err := direct.Open(req)
	if err != nil {
		t.Fatal(err)
	}

	for _, open := range []struct {
		via string
		c   *service.Client
		id  string
	}{{"router", c, routed.ID}, {"direct", direct, plain.ID}} {
		snap, err := snapshot(open.c, open.id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Config.Seed != req.Seed {
			t.Fatalf("session opened via %s has seed %d, want %d", open.via, snap.Config.Seed, req.Seed)
		}
	}
	viaRouter, err := c.Next(routed.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	viaDirect, err := direct.Next(plain.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if viaRouter.Candidates[0].Claim != viaDirect.Candidates[0].Claim {
		t.Fatalf("first question differs: claim %d via the router, %d direct",
			viaRouter.Candidates[0].Claim, viaDirect.Candidates[0].Claim)
	}
}
