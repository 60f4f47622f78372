package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"

	"factcheck/internal/edge"
	"factcheck/internal/obs"
	"factcheck/internal/service"
)

// Handler returns the router's HTTP handler: the single-server session
// API proxied to ring owners (the streaming ingest endpoints included),
// the fleet aggregates of /healthz and /metrics, and the /fleet control
// plane. A service.Client, the workload harness, and every smoke script
// drive it exactly as they drive one factcheck-server.
//
// The table is mounted by the same edge the execution layer mounts
// (edge.Mount): served under /v1, every request traced and logged, and
// router-originated errors carrying the same JSON envelope as the
// backends — clients see one contract no matter which layer refused
// them. The trace id the edge stamps into r.Header is what send
// forwards, so the proxy hop carries it for free. Per-endpoint
// counting is the backends' concern; the router passes no counter.
func (rt *Router) Handler() http.Handler {
	return edge.Mount(rt.routes(), rt.log, nil)
}

// routes is the router's route table.
func (rt *Router) routes() []edge.Route {
	return []edge.Route{
		// The router, not the backend, draws the session id (see create).
		{Method: "POST", Path: "/sessions", Endpoint: "open", Handler: rt.create},
		// The fleet-union session listing.
		{Method: "GET", Path: "/sessions", Endpoint: "list", Handler: rt.listSessions},
		// Everything addressed to one session goes to its ring owner,
		// whatever the method.
		{Path: "/sessions/{id}", Endpoint: "proxy", Handler: rt.proxySession},
		{Path: "/sessions/{id}/{rest...}", Endpoint: "proxy", Handler: rt.proxySession},
		// Fleet-summed health and fleet-aggregated telemetry, in the
		// single-server shapes.
		{Method: "GET", Path: "/healthz", Handler: func(w http.ResponseWriter, _ *http.Request) {
			edge.WriteJSON(w, http.StatusOK, rt.AggregateHealth())
		}},
		{Method: "GET", Path: "/metrics", Handler: rt.metrics},
		// The control plane: membership and per-member load; join a
		// backend and rebalance; drain a backend and drop it.
		{Method: "GET", Path: "/fleet", Endpoint: "fleet", Handler: func(w http.ResponseWriter, _ *http.Request) {
			edge.WriteJSON(w, http.StatusOK, rt.Fleet())
		}},
		{Method: "POST", Path: "/fleet/join", Endpoint: "join", Handler: rt.fleetChange(rt.Join)},
		{Method: "POST", Path: "/fleet/leave", Endpoint: "leave", Handler: rt.fleetChange(rt.Leave)},
	}
}

// metrics serves the fleet-aggregated scrape: the single-server JSON
// shape by default, Prometheus text exposition with
// ?format=prometheus. The Prometheus view is the backend renderer over
// the merged fleet snapshot (every series labeled backend="fleet")
// plus the router's own placement series.
func (rt *Router) metrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") != "prometheus" {
		edge.WriteJSON(w, http.StatusOK, rt.AggregateMetrics(edge.BoolQuery(r, "buckets")))
		return
	}
	m := rt.AggregateMetrics(true)
	fs := rt.Fleet()
	up := 0
	for _, b := range fs.Backends {
		if b.Up {
			up++
		}
	}
	var e obs.Expo
	labels := obs.Labels{{"backend", "fleet"}}
	e.Counter("factcheck_migrations_total", "Completed session migrations since router boot.", labels, float64(rt.Migrations()))
	e.Gauge("factcheck_ring_members", "Backends currently on the placement ring.", labels, float64(len(fs.RingMembers)))
	e.Gauge("factcheck_backends_up", "Registered backends answering probes.", labels, float64(up))
	e.Gauge("factcheck_backends_known", "Registered backends, up or down.", labels, float64(len(fs.Backends)))
	e.Gauge("factcheck_sessions_migrating", "Sessions currently mid-migration.", labels, float64(fs.Migrating))
	w.Header().Set("Content-Type", obs.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(service.PromText(m))
	_, _ = w.Write(e.Bytes())
}

// create handles POST /sessions. The router, not the backend, draws
// the session id: placement is a pure function of the id, so the id
// must exist before an owner can be chosen. The chosen id is injected
// into the forwarded body, which the execution layer honors
// (createPayload.ID), keeping the externally visible contract — POST
// returns the id you then address — identical to a single server.
func (rt *Router) create(w http.ResponseWriter, r *http.Request) {
	// Only "id" is read or injected; every other field is forwarded as
	// the raw bytes the client sent, so what the backend decodes (a
	// 64-bit seed above 2^53, say) is what a direct request would give it.
	var body map[string]json.RawMessage
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		service.Refuse(w, service.CodeBadRequest, err.Error())
		return
	}
	if len(bytes.TrimSpace(raw)) > 0 {
		if err := json.Unmarshal(raw, &body); err != nil {
			service.Refuse(w, service.CodeBadRequest, err.Error())
			return
		}
	}
	if body == nil {
		body = map[string]json.RawMessage{}
	}
	var id string
	_ = json.Unmarshal(body["id"], &id) // absent or not a string: draw one
	if id == "" {
		id = obs.NewTraceID()
		body["id"], _ = json.Marshal(id)
	}
	buf, err := json.Marshal(body)
	if err != nil {
		service.Refuse(w, service.CodeBadRequest, err.Error())
		return
	}
	rt.forward(w, r, id, "/v1/sessions", buf, true)
}

// proxySession forwards one session request to the id's ring owner.
// /export and /import are control-plane endpoints the router itself
// drives; proxying them would move sessions behind the placement
// layer's back.
func (rt *Router) proxySession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rest := r.PathValue("rest")
	if rest == "export" || rest == "import" {
		service.Refuse(w, service.CodeBadRequest, "router: export/import are migration internals; drive migrations via /fleet")
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		service.Refuse(w, service.CodeBadRequest, err.Error())
		return
	}
	rt.forward(w, r, id, r.URL.RequestURI(), body, false)
}

// forward sends a request for session id to the id's ring owner and
// relays the answer. The body is buffered, so the request can be
// replayed on the next owner when this one turns out to be dead (under
// service.Resendable's rule) or the session moved under it.
// Mid-migration sessions answer 503 + Retry-After — the client-side
// retry rides the gap out. With create set (POST /sessions) two steps
// differ: resolve registers the create in flight against the owner,
// which a drain waits for, and the create is refused with a 429 when
// the owner's last probe reported shedding.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, id, uri string, body []byte, create bool) {
	prev := ""
	for attempt := 0; attempt < 3; attempt++ {
		b, migrating := rt.resolve(id, create)
		if migrating {
			service.Refuse(w, service.CodeMigrating, "router: session is migrating")
			return
		}
		if b == nil {
			if attempt == 0 {
				service.Refuse(w, service.CodeNoBackends, "router: no backends in the fleet")
				return
			}
			break // this request's failed sends took the last owners down
		}
		if create {
			// Released when the request is answered, not per attempt: a
			// drain of b waits at most for this one create.
			defer b.inflight.Done()
		}
		if b.base == prev {
			// b said the session left, yet placement still names it (a Join
			// re-added b before reconcile flagged what it exported).
			service.Refuse(w, service.CodeMigrating, "router: session left "+b.base+", which placement still names")
			return
		}
		prev = b.base
		// Shed-before-proxy: the router sends the 429 + Retry-After the
		// backend would, saving the saturated member the proxy hop.
		// Placement is pinned to the ring owner, so routing around it
		// would strand the session's id.
		if create && rt.shedding(b) {
			service.Refuse(w, service.CodeShedding, "router: owner "+b.base+" is shedding load")
			return
		}
		resp, err := rt.send(b, r, uri, body)
		if err != nil {
			// The owner is unreachable: take it out of the ring and
			// re-resolve, which places the request on a live backend.
			// With a shared store the new owner revives the session from
			// the record the WAL kept current; the answer's seq token
			// (DESIGN.md §12) absorbs a request the dead owner applied
			// but never acknowledged. An ingest the owner may have
			// applied is not re-sent (service.Resendable).
			rt.markDown(b)
			if !service.Resendable(r.Method, uri, err) {
				service.Refuse(w, service.CodeBadGateway, "router: owner "+b.base+" failed after receiving the ingest; not re-sent")
				return
			}
			prev = ""
			continue
		}
		if rt.moved(id, b, resp.StatusCode) {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		copyResponse(w, resp)
		return
	}
	service.Refuse(w, service.CodeBadGateway, "router: no reachable owner for the session")
}

// moved reports whether b's answer says the session left b while the
// request was in flight, so the request should follow it. A 410 means
// b exported the session: a migration started between the resolve and
// the forward, and re-resolving either finds it still in flight or
// sees the new owner. A 404 counts only when the session's placement
// changed since the resolve: a whole migration — export, import,
// tombstone — may have run meanwhile.
func (rt *Router) moved(id string, b *backend, status int) bool {
	switch status {
	case http.StatusGone:
		return true
	case http.StatusNotFound:
		now, migrating := rt.resolve(id, false)
		return migrating || now != b
	}
	return false
}

// listSessions aggregates GET /sessions across the fleet. Stored
// records are deduplicated: with a shared store every backend lists
// the same ones.
func (rt *Router) listSessions(w http.ResponseWriter, _ *http.Request) {
	live := map[string]bool{}
	stored := map[string]bool{}
	for _, b := range rt.upBackends() {
		sl, err := b.client.Sessions()
		if err != nil {
			continue
		}
		for _, id := range sl.Live {
			live[id] = true
		}
		for _, id := range sl.Stored {
			stored[id] = true
		}
	}
	out := struct {
		Live   []string `json:"live"`
		Stored []string `json:"stored"`
	}{Live: []string{}, Stored: []string{}}
	for id := range live {
		out.Live = append(out.Live, id)
	}
	for id := range stored {
		if !live[id] {
			out.Stored = append(out.Stored, id)
		}
	}
	sort.Strings(out.Live)
	sort.Strings(out.Stored)
	edge.WriteJSON(w, http.StatusOK, out)
}

type fleetRequest struct {
	URL string `json:"url"`
}

// fleetChange serves POST /fleet/join and /fleet/leave: decode the
// backend URL, apply the membership change, answer the new fleet view.
func (rt *Router) fleetChange(apply func(base string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req fleetRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.URL == "" {
			service.Refuse(w, service.CodeBadRequest, `router: body must be {"url": "http://backend"}`)
			return
		}
		if err := apply(req.URL); err != nil {
			service.Refuse(w, service.CodeBadGateway, err.Error())
			return
		}
		edge.WriteJSON(w, http.StatusOK, rt.Fleet())
	}
}

// resolve reads id's migration flag and resolves its ring owner to a
// backend in one critical section: a drain flags its sessions and flips
// the ring under the same lock, so a request sees either the old owner
// or the flag, never the new owner before the session has arrived. With
// create set it also registers an in-flight create against the owner
// under that lock, closing the race between a create's placement
// decision and a concurrent drain's ring flip (the drain waits for
// in-flight creates before its final sweep); the caller must call
// inflight.Done.
func (rt *Router) resolve(id string, create bool) (b *backend, migrating bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.migrating[id] {
		return nil, true
	}
	base, ok := rt.ring.Owner(id)
	if !ok {
		return nil, false
	}
	b = rt.backends[base]
	if b != nil && create {
		b.inflight.Add(1)
	}
	return b, false
}

// send forwards the request's method and body to one backend.
func (rt *Router) send(b *backend, r *http.Request, uri string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(r.Method, b.base+uri, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	} else if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	// The edge middleware normalized the inbound trace id into
	// r.Header, so forwarding it threads one id through the proxy hop:
	// the backend's span ring and logs carry the id the client saw.
	if trace := r.Header.Get(obs.TraceHeader); trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	return rt.hc.Do(req)
}

// copyResponse relays a backend response: status, the headers that
// matter to this API (content type, the Retry-After backpressure hint,
// and the trace id — the backend echoes the one the router forwarded),
// and the body.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", obs.TraceHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}
