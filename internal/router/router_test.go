package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/persist"
	"factcheck/internal/service"
	"factcheck/internal/sim"
)

// fastOpen keeps test inference cheap; migration correctness is about
// the placement protocol, and determinism holds at any budget.
func fastOpen(seed int64) service.OpenRequest {
	return service.OpenRequest{
		Profile:       "wiki",
		Scale:         0.1,
		Seed:          seed,
		CandidatePool: 6,
		Communities:   3,
		EM: &service.EMBudgets{
			BurnIn: 4, Samples: 8, IncBurnIn: 2, IncSamples: 4,
			EMIters: 1, HypoBurn: 1, HypoSamples: 2,
		},
	}
}

// fleetBackend is one test backend: its manager (for white-box
// assertions) and its HTTP server.
type fleetBackend struct {
	manager *service.Manager
	srv     *httptest.Server
}

// newFleet boots n backends (each with the given store) and a router
// over them, all torn down with the test.
func newFleet(t *testing.T, n int, storeFor func(i int) persist.Store) (*Router, *service.Client, []*fleetBackend) {
	t.Helper()
	rt := New(Config{
		ProbeInterval: time.Hour, // probes off: tests drive failure via the proxy path
	})
	t.Cleanup(rt.Close)
	backends := make([]*fleetBackend, n)
	for i := 0; i < n; i++ {
		var store persist.Store
		if storeFor != nil {
			store = storeFor(i)
		}
		m := service.NewManager(service.Config{Workers: 2, Store: store})
		srv := httptest.NewServer(service.NewServer(m).Handler())
		t.Cleanup(func() { srv.Close(); m.Shutdown() })
		backends[i] = &fleetBackend{manager: m, srv: srv}
		if err := rt.Join(srv.URL); err != nil {
			t.Fatalf("join backend %d: %v", i, err)
		}
	}
	rsrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rsrv.Close)
	return rt, service.NewClient(rsrv.URL), backends
}

// byBase finds the fleetBackend behind a base URL.
func byBase(t *testing.T, backends []*fleetBackend, base string) *fleetBackend {
	t.Helper()
	for _, b := range backends {
		if b.srv.URL == base {
			return b
		}
	}
	t.Fatalf("no backend with base %s", base)
	return nil
}

// mustAnswers has the script give session id n oracle answers through c
// and returns the state after the last.
func mustAnswers(t *testing.T, c *service.Client, id string, n int) service.StateResponse {
	t.Helper()
	st, err := (&service.Script{Client: c, ID: id}).Answers(n)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// getJSON fetches a /v1 path through c's transport (a socket, the
// router or the in-process handler) and decodes a 200 body into out.
func getJSON(c *service.Client, path string, out any) error {
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Get(c.BaseURL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// snapshot returns session id's durable form.
func snapshot(c *service.Client, id string) (service.SessionSnapshot, error) {
	var snap service.SessionSnapshot
	err := getJSON(c, "/v1/sessions/"+id+"/snapshot", &snap)
	return snap, err
}

// state returns session id's progress, with the per-claim marginals
// when asked.
func state(c *service.Client, id string, marginals bool) (service.StateResponse, error) {
	path := "/v1/sessions/" + id + "/state"
	if marginals {
		path += "?marginals=1"
	}
	var st service.StateResponse
	err := getJSON(c, path, &st)
	return st, err
}

// libraryTrace is the transcript the session req opens records in
// process (service.BuildSession) after n oracle answers.
func libraryTrace(t *testing.T, req service.OpenRequest, n int) []core.Elicitation {
	t.Helper()
	s, corpus, err := service.BuildSession(req, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle := &sim.Oracle{Truth: corpus.Truth}
	for i := 0; i < n; i++ {
		s.Step(oracle)
	}
	return s.Snapshot().Elicitations
}

// TestScriptSameOverEveryClient: one script — answers, a delta, answers
// — run over the in-process client, over a socket and through a
// one-backend router leaves the same transcript and the same final
// state, marginals included. What differs between the three is
// transport only.
func TestScriptSameOverEveryClient(t *testing.T) {
	req := fastOpen(61)
	type outcome struct {
		Snap  service.SessionSnapshot
		State service.StateResponse
	}
	var want outcome
	for i, tc := range []struct {
		name   string
		client func(*testing.T) *service.Client
	}{
		{"in process", func(t *testing.T) *service.Client {
			m := service.NewManager(service.Config{Workers: 2})
			t.Cleanup(m.Shutdown)
			return service.NewLocalClient(m)
		}},
		{"socket", func(t *testing.T) *service.Client {
			_, _, backends := newFleet(t, 1, nil)
			return service.NewClient(backends[0].srv.URL)
		}},
		{"router", func(t *testing.T) *service.Client {
			_, c, _ := newFleet(t, 1, nil)
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := service.Script{Client: tc.client(t)}
			if _, err := s.Open("same-id", req); err != nil {
				t.Fatal(err)
			}
			mustAnswers(t, s.Client, s.ID, 3)
			if _, resp, err := s.Ingest(0.1, 67); err != nil || !resp.Applied {
				t.Fatalf("ingest: %+v, %v", resp, err)
			}
			mustAnswers(t, s.Client, s.ID, 3)
			var got outcome
			var err error
			if got.Snap, err = snapshot(s.Client, s.ID); err != nil {
				t.Fatal(err)
			}
			if got.State, err = state(s.Client, s.ID, true); err != nil {
				t.Fatal(err)
			}
			if len(got.Snap.Elicitations) != 7 || len(got.State.Marginals) != got.State.Claims {
				t.Fatalf("vacuous: %d transcript records, %d marginals over %d claims", len(got.Snap.Elicitations), len(got.State.Marginals), got.State.Claims)
			}
			if i == 0 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("diverged from the in-process run:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestDrainMigrationTraceBitIdentical is the tentpole acceptance test:
// a session opened through the router, migrated mid-elicitation by
// draining the backend that owns it, must produce a selection trace
// bit-identical to the single-server library path.
func TestDrainMigrationTraceBitIdentical(t *testing.T) {
	rt, client, backends := newFleet(t, 3, nil)
	req := fastOpen(42)
	info, err := client.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID

	const before, after = 3, 3
	mustAnswers(t, client, id, before)

	ownerBase, ok := rt.Owner(id)
	if !ok {
		t.Fatal("no owner")
	}
	owner := byBase(t, backends, ownerBase)
	if err := rt.Leave(ownerBase); err != nil {
		t.Fatalf("drain: %v", err)
	}
	newOwnerBase, ok := rt.Owner(id)
	if !ok || newOwnerBase == ownerBase {
		t.Fatalf("session still owned by the drained backend (%s)", newOwnerBase)
	}
	// The old copy must be tombstoned: the drained backend keeps no
	// record (private stores here, so the tombstone is a real delete).
	if sl, err := owner.manager.Sessions(); err != nil || len(sl.Live)+len(sl.Stored) != 0 {
		t.Fatalf("drained backend still holds sessions: %+v (err %v)", sl, err)
	}

	mustAnswers(t, client, id, after)

	got, err := snapshot(client, id)
	if err != nil {
		t.Fatal(err)
	}
	want := libraryTrace(t, req, before+after)
	if !reflect.DeepEqual(got.Elicitations, want) {
		t.Fatalf("trace diverged across migration:\nserved:  %+v\nlibrary: %+v", got.Elicitations, want)
	}
	if len(got.Elicitations) == 0 {
		t.Fatal("vacuous: no elicitations driven")
	}
	// The migration payload carried the state image and the new owner
	// installed it: the fleet scrape counts one image restore, no replay.
	fleet, err := client.Metrics(false)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.RestoresImage != 1 || len(fleet.RestoresReplay) != 0 || fleet.ImageBytesWritten == 0 {
		t.Fatalf("fleet restores: image %d, replay %v, image bytes %d; want 1, none, > 0",
			fleet.RestoresImage, fleet.RestoresReplay, fleet.ImageBytesWritten)
	}
}

// TestMigrationRacedAgainstAnswer pins the nastiest interleaving: an
// answer is applied by the old owner but its response is lost, the
// session migrates, and the client retries the same answer (same seq)
// against the new owner. The seq idempotency must recognize the replay
// from the migrated transcript itself and not double-apply.
func TestMigrationRacedAgainstAnswer(t *testing.T) {
	rt, client, backends := newFleet(t, 3, nil)
	req := fastOpen(17)
	info, err := client.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID
	mustAnswers(t, client, id, 2)

	next, err := client.Next(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := next.Seq
	racedReq := service.AnswerRequest{Claim: next.Candidates[0].Claim, Oracle: true, Seq: &seq}

	// The answer lands on the owner, but the response never reaches the
	// client (applied directly on the owning manager to model the lost
	// response).
	ownerBase, _ := rt.Owner(id)
	owner := byBase(t, backends, ownerBase)
	if _, err := owner.manager.AnswerCtx(context.Background(), id, racedReq); err != nil {
		t.Fatalf("raced answer: %v", err)
	}
	applied, err := owner.manager.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}

	// The session migrates before the client can retry.
	if err := rt.Leave(ownerBase); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The retry must succeed (not 409) and must not double-apply.
	st, err := client.Answer(id, racedReq)
	if err != nil {
		t.Fatalf("retried answer after migration: %v", err)
	}
	if st.ID != id {
		t.Fatalf("retry answered for %q", st.ID)
	}
	got, err := snapshot(client, id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Elicitations, applied.Elicitations) {
		t.Fatalf("retry changed the transcript:\nbefore: %+v\nafter:  %+v", applied.Elicitations, got.Elicitations)
	}

	// And the trace must still match the library path end to end.
	mustAnswers(t, client, id, 2)
	final, err := snapshot(client, id)
	if err != nil {
		t.Fatal(err)
	}
	want := libraryTrace(t, req, 2+1+2)
	if !reflect.DeepEqual(final.Elicitations, want) {
		t.Fatalf("trace diverged:\nserved:  %+v\nlibrary: %+v", final.Elicitations, want)
	}
}

// TestAnswersConcurrentWithDrain drives answers (with the Retry-After
// client policy) while the owning backend drains. The 503 + Retry-After
// protocol must make the migration invisible to the caller, and the
// trace must stay on the library path.
func TestAnswersConcurrentWithDrain(t *testing.T) {
	rt, client, _ := newFleet(t, 3, nil)
	client.Retry = &service.RetryPolicy{MaxAttempts: 8, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 3}
	req := fastOpen(23)
	info, err := client.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID
	mustAnswers(t, client, id, 1)

	ownerBase, _ := rt.Owner(id)
	var wg sync.WaitGroup
	wg.Add(1)
	var drainErr error
	go func() {
		defer wg.Done()
		drainErr = rt.Leave(ownerBase)
	}()
	const total = 5
	mustAnswers(t, client, id, total-1)
	wg.Wait()
	if drainErr != nil {
		t.Fatalf("drain: %v", drainErr)
	}

	got, err := snapshot(client, id)
	if err != nil {
		t.Fatal(err)
	}
	want := libraryTrace(t, req, total)
	if !reflect.DeepEqual(got.Elicitations, want) {
		t.Fatalf("trace diverged under a concurrent drain:\nserved:  %+v\nlibrary: %+v", got.Elicitations, want)
	}
}

// pathGate is a router transport that parks the first call whose path
// ends in suffix until released.
type pathGate struct {
	suffix           string
	reached, release chan struct{}
	once             *sync.Once
}

func newPathGate(suffix string) pathGate {
	return pathGate{suffix, make(chan struct{}), make(chan struct{}), new(sync.Once)}
}

func (g pathGate) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, g.suffix) {
		g.once.Do(func() {
			close(g.reached)
			<-g.release
		})
	}
	return http.DefaultTransport.RoundTrip(r)
}

// gatedBody is a request body whose first Read announces itself and
// then waits to be released.
type gatedBody struct {
	io.Reader
	reading, release chan struct{}
	once             sync.Once
}

func (b *gatedBody) Read(p []byte) (int, error) {
	b.once.Do(func() {
		close(b.reading)
		<-b.release
	})
	return b.Reader.Read(p)
}

// TestProxyResolvesFlagAndOwnerTogether forces the interleaving behind
// the old 1 % flake of TestAnswersConcurrentWithDrain: a request is
// already inside proxySession, reading its body, when a drain flags the
// session and flips the ring; the migration is then held at its export
// so the session is still on the leaving backend when the request goes
// on. Reading the flag and resolving the owner under two separate locks
// routed it to the new owner ahead of the session — a 404. Resolved
// together, the request sees the flag and gets the 503 the retry policy
// rides out.
func TestProxyResolvesFlagAndOwnerTogether(t *testing.T) {
	rt, client, _ := newFleet(t, 2, nil)
	info, err := client.Open(fastOpen(29))
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID
	next, err := client.Next(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	answer, err := json.Marshal(service.AnswerRequest{Claim: next.Candidates[0].Claim, Oracle: true, Seq: &next.Seq})
	if err != nil {
		t.Fatal(err)
	}

	gate := newPathGate("/export") // the first step of a migration
	rt.hc.Transport = gate
	body := &gatedBody{Reader: strings.NewReader(string(answer)), reading: make(chan struct{}), release: make(chan struct{})}
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/answer", body))
	}()
	<-body.reading

	ownerBase, _ := rt.Owner(id)
	drained := make(chan error, 1)
	go func() { drained <- rt.Leave(ownerBase) }()
	<-gate.reached // flagged, ring flipped, session not yet exported

	close(body.release)
	<-served
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), service.CodeMigrating) {
		t.Errorf("request raced past a drain: status %d, body %s; want 503 %s", rec.Code, rec.Body, service.CodeMigrating)
	}

	close(gate.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := client.Answer(id, service.AnswerRequest{Claim: next.Candidates[0].Claim, Oracle: true, Seq: &next.Seq}); err != nil {
		t.Fatalf("answer after the drain: %v", err)
	}
}

// TestProxyFollowsSessionPastTombstone is the other half of that flake:
// a request resolved to the old owner is still in flight when the whole
// migration — export, import, tombstone — completes, so the old owner no
// longer knows the session and answers 404 rather than the 410 of a
// session it has merely exported. The proxy must notice that placement
// moved and follow the session.
func TestProxyFollowsSessionPastTombstone(t *testing.T) {
	rt, client, _ := newFleet(t, 2, nil)
	info, err := client.Open(fastOpen(31))
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID
	gate := newPathGate("/next")
	rt.hc.Transport = gate
	type result struct {
		next service.NextResponse
		err  error
	}
	got := make(chan result, 1)
	go func() {
		next, err := client.Next(id, 1)
		got <- result{next, err}
	}()
	<-gate.reached // resolved to the old owner, not yet sent

	ownerBase, _ := rt.Owner(id)
	if err := rt.Leave(ownerBase); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(gate.release)
	if r := <-got; r.err != nil || len(r.next.Candidates) == 0 {
		t.Fatalf("request in flight across a drain: %+v, %v", r.next, r.err)
	}
}

// TestFailoverAfterBackendDeath models the SIGKILL case router-smoke
// exercises end to end: backends share one durable store, the owner
// dies without warning, and the router reroutes to a backend that
// revives the session from the write-ahead log — trace unbroken.
func TestFailoverAfterBackendDeath(t *testing.T) {
	dir := t.TempDir()
	rt, client, backends := newFleet(t, 3, func(int) persist.Store {
		fs, err := persist.NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	})
	req := fastOpen(99)
	info, err := client.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID
	mustAnswers(t, client, id, 3)

	ownerBase, _ := rt.Owner(id)
	owner := byBase(t, backends, ownerBase)
	owner.srv.CloseClientConnections()
	owner.srv.Close()

	// The next request hits the dead owner, which the router marks down
	// and reroutes; the new owner revives the session from the shared
	// store.
	mustAnswers(t, client, id, 3)
	if newOwner, ok := rt.Owner(id); !ok || newOwner == ownerBase {
		t.Fatalf("owner after death = %q, %v", newOwner, ok)
	}

	got, err := snapshot(client, id)
	if err != nil {
		t.Fatal(err)
	}
	want := libraryTrace(t, req, 6)
	if !reflect.DeepEqual(got.Elicitations, want) {
		t.Fatalf("trace diverged across the failover:\nserved:  %+v\nlibrary: %+v", got.Elicitations, want)
	}
}

// TestJoinRebalancesMisplacedSessions: adding a backend migrates the
// sessions the new ring maps to it, and the fleet view reflects the
// join.
func TestJoinRebalancesMisplacedSessions(t *testing.T) {
	rt, client, _ := newFleet(t, 2, nil)

	// Open a handful of sessions so at least one remaps when a third
	// backend joins (64 vnodes give the new member ~1/3 of the space).
	ids := make([]string, 0, 4)
	req := fastOpen(5)
	for i := 0; i < 4; i++ {
		r := req
		r.Seed = int64(100 + i)
		info, err := client.Open(r)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		mustAnswers(t, client, info.ID, 1)
	}

	m := service.NewManager(service.Config{Workers: 2})
	srv := httptest.NewServer(service.NewServer(m).Handler())
	t.Cleanup(func() { srv.Close(); m.Shutdown() })
	if err := rt.Join(srv.URL); err != nil {
		t.Fatalf("join: %v", err)
	}

	onNew := 0
	for _, id := range ids {
		owner, ok := rt.Owner(id)
		if !ok {
			t.Fatalf("no owner for %s", id)
		}
		if owner == srv.URL {
			onNew++
		}
		// Every session must still answer wherever it landed.
		if _, err := state(client, id, false); err != nil {
			t.Fatalf("state of %s after rebalance: %v", id, err)
		}
	}
	t.Logf("rebalance moved %d/%d sessions to the new backend", onNew, len(ids))

	fs := rt.Fleet()
	if len(fs.Backends) != 3 || len(fs.RingMembers) != 3 {
		t.Fatalf("fleet after join: %+v", fs)
	}
	if fs.Migrating != 0 {
		t.Fatalf("migrating flags leaked: %+v", fs)
	}
}

// TestAggregateMetricsAndHealth: the router's /metrics and /healthz
// must present the fleet in the single-server shapes, with counters
// summed across members and per-endpoint attribution intact.
func TestAggregateMetricsAndHealth(t *testing.T) {
	_, client, _ := newFleet(t, 2, nil)
	req := fastOpen(3)
	info, err := client.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, client, info.ID, 2)

	m, err := client.Metrics(true)
	if err != nil {
		t.Fatal(err)
	}
	if m.AnswersServed != 2 {
		t.Fatalf("fleet answersServed = %d, want 2", m.AnswersServed)
	}
	if m.SessionsOpened != 1 {
		t.Fatalf("fleet sessionsOpened = %d, want 1", m.SessionsOpened)
	}
	if m.AnswerLatency.Count != 2 || len(m.AnswerLatencyBuckets) == 0 {
		t.Fatalf("fleet latency histogram not aggregated: %+v", m.AnswerLatency)
	}
	if m.Endpoints["answer"].Requests != 2 || m.Endpoints["open"].Requests != 1 {
		t.Fatalf("fleet endpoint counters: %+v", m.Endpoints)
	}
	h, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Sessions != 1 {
		t.Fatalf("fleet health sessions = %d, want 1", h.Sessions)
	}
}
