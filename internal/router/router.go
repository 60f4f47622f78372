package router

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"factcheck/internal/obs"
	"factcheck/internal/service"
)

// failAfter is the consecutive probe failures before a backend is
// marked down and removed from the ring. A transport error on a
// proxied request marks it down immediately — the proxy has better
// evidence than the prober.
const failAfter = 2

// Config tunes a Router.
type Config struct {
	// ProbeInterval is the health-probe period (<=0 = 2s).
	ProbeInterval time.Duration
	// HTTPClient optionally overrides the transport used for proxying
	// and control calls (nil = a client with a 60s timeout, enough for
	// the slowest session open the profiles produce).
	HTTPClient *http.Client
	// Logger receives the router's structured logs (nil = silent):
	// operational events — backends joining, draining, leaving, failing,
	// sessions migrating — and one record per request with its trace id,
	// 4xx/5xx at warn with the envelope code.
	Logger *slog.Logger
}

// backend is one fleet member: its control client plus the placement
// layer's view of its health.
type backend struct {
	base   string
	client *service.Client
	// id is the backend's self-reported BackendID ("" = anonymous).
	id string
	// store is the backend's store location from /healthz; equal
	// non-empty locations mean shared records (see persist.Locator).
	store string
	down  bool
	fails int
	// health is the last successful probe's payload, for the fleet
	// view.
	health service.Health
	// inflight tracks create requests targeted at this backend, so a
	// drain can wait for the create/ring race to settle before it
	// reconciles.
	inflight sync.WaitGroup
}

// Router is the placement layer: a consistent-hash ring over a
// registry of factcheck-server backends. It serves the single-server
// HTTP API (see Handler) plus a /fleet control plane, and owns session
// migration. All exported methods are safe for concurrent use.
type Router struct {
	cfg Config
	hc  *http.Client
	log *slog.Logger

	// migrations counts completed session migrations since boot, for
	// the router's own Prometheus series.
	migrations atomic.Int64

	// opMu serializes control-plane operations (Join, Leave,
	// rebalances): concurrent topology changes would race their
	// migration plans. The data plane only takes mu.
	opMu sync.Mutex

	mu sync.Mutex
	// ring is the consistent-hash placement function over the live
	// member set. guarded by mu
	ring *Ring
	// guarded by mu
	backends map[string]*backend
	// migrating flags session ids whose export/import is in flight, so
	// the data plane 503s them instead of racing the move. guarded by mu
	migrating map[string]bool
	// guarded by mu
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// New returns a router with no backends and starts its health-probe
// loop. Close stops the loop.
func New(cfg Config) *Router {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 60 * time.Second}
	}
	log := cfg.Logger
	if log == nil {
		log = obs.Discard()
	}
	rt := &Router{
		cfg:       cfg,
		hc:        hc,
		log:       log,
		ring:      NewRing(),
		backends:  make(map[string]*backend),
		migrating: make(map[string]bool),
		stop:      make(chan struct{}),
	}
	rt.wg.Add(1)
	go rt.probeLoop()
	return rt
}

// Close stops the probe loop. Backends keep serving their sessions —
// closing the router abandons placement, not execution.
func (rt *Router) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	rt.mu.Unlock()
	close(rt.stop)
	rt.wg.Wait()
}

// Join registers a backend and reconciles: sessions whose ring owner
// changed are migrated onto their new owners. The backend must answer
// a health probe first — joining an unreachable backend is refused
// rather than letting the ring route sessions into a black hole.
// Rejoining a down backend resets its health state.
func (rt *Router) Join(base string) error {
	base = strings.TrimRight(base, "/")
	if base == "" {
		return errors.New("router: empty backend URL")
	}
	rt.opMu.Lock()
	defer rt.opMu.Unlock()

	cl := &service.Client{BaseURL: base, HTTPClient: rt.hc}
	h, err := cl.Health()
	if err != nil {
		return fmt.Errorf("router: backend %s failed its join probe: %w", base, err)
	}
	id := base
	if m, err := cl.Metrics(false); err == nil && m.BackendID != "" {
		id = m.BackendID
	}

	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return errors.New("router: closed")
	}
	if b, ok := rt.backends[base]; ok && !b.down {
		rt.mu.Unlock()
		return fmt.Errorf("router: backend %s already joined", base)
	}
	rt.backends[base] = &backend{base: base, client: cl, id: id, store: h.Store, health: h}
	rt.ring.Add(base)
	members := rt.ring.Len()
	rt.mu.Unlock()
	rt.log.Info("backend joined", "backend", id, "url", base, "ring", members)

	rt.reconcile(rt.upBackends()) // each failure is logged where it happens
	return nil
}

// Leave drains a backend and removes it from the fleet: every session
// it owns is migrated to its new ring owner, with requests for a
// session mid-move answered 503 + Retry-After instead of being routed
// into the gap. The order matters — sessions are flagged before the
// ring flips, so no request can reach a new owner that does not hold
// the session yet.
func (rt *Router) Leave(base string) error {
	base = strings.TrimRight(base, "/")
	rt.opMu.Lock()
	defer rt.opMu.Unlock()

	rt.mu.Lock()
	b, ok := rt.backends[base]
	rt.mu.Unlock()
	if !ok {
		return fmt.Errorf("router: unknown backend %s", base)
	}

	// List before flipping the ring: the backend is still serving, and
	// we need the ids to flag.
	ids, err := rt.ownedSessions(b)
	if err != nil {
		return fmt.Errorf("router: cannot drain %s: %w", base, err)
	}

	rt.mu.Lock()
	for _, id := range ids {
		rt.migrating[id] = true
	}
	rt.ring.Remove(base)
	rt.mu.Unlock()
	rt.log.Info("backend draining", "backend", b.id, "url", base, "sessions", len(ids))

	// Creates that resolved their owner before the ring flipped may
	// still be in flight toward the leaving backend; wait for them so
	// the reconcile below sees everything.
	b.inflight.Wait()

	failures, err := rt.reconcile([]*backend{b})

	rt.mu.Lock()
	// Unflag what the reconcile never listed: a session deleted or
	// spilled to a shared store meanwhile has nothing left to move.
	for _, id := range ids {
		delete(rt.migrating, id)
	}
	delete(rt.backends, base)
	members := rt.ring.Len()
	rt.mu.Unlock()
	rt.log.Info("backend left", "backend", b.id, "url", base, "ring", members)
	if err != nil {
		return fmt.Errorf("router: drained %s without a final listing of its sessions: %w", base, err)
	}
	if failures > 0 {
		return fmt.Errorf("router: drained %s with %d failed migration(s); see router log", base, failures)
	}
	return nil
}

// ownedSessions lists the sessions pinned to b: its live ones, plus
// its stored records when no other fleet member shares b's store (with
// a shared store, stored records are reachable from every member and
// need no migration; with a private store, a stored record's only
// bytes live on b and must move with it).
func (rt *Router) ownedSessions(b *backend) ([]string, error) {
	sl, err := b.client.Sessions()
	if err != nil {
		return nil, err
	}
	rt.mu.Lock()
	shared := false
	for _, o := range rt.backends {
		if o.base != b.base && !o.down && o.store != "" && o.store == b.store {
			shared = true
			break
		}
	}
	rt.mu.Unlock()
	ids := sl.Live
	if !shared {
		ids = append(ids, sl.Stored...)
	}
	return ids, nil
}

// reconcile migrates every session that sits off its ring owner onto
// it, in rounds over the given backends: list each one's sessions,
// flag the misplaced ones, migrate them, and clear each flag as its
// migration settles. Rounds repeat because a create that resolved the
// old owner before a ring change can land there after the listing; the
// loop ends after a round that finds nothing new to move. A session is
// attempted at most once per call — one that failed stays where
// rollback put it — so the count returned is of distinct sessions. err
// is the last listing that failed: those sessions were not reconciled.
// Join calls it over every up backend; Leave over the backend it
// drains, which the ring no longer places anything on.
func (rt *Router) reconcile(from []*backend) (failures int, err error) {
	tried := map[string]bool{}
	for {
		moved := 0
		for _, b := range from {
			ids, lerr := rt.ownedSessions(b)
			if lerr != nil {
				rt.log.Warn("reconcile listing failed", "url", b.base, "err", lerr)
				err = lerr
				continue
			}
			var misplaced []string
			rt.mu.Lock()
			for _, id := range ids {
				if owner, ok := rt.ring.Owner(id); (!ok || owner != b.base) && !tried[id] {
					misplaced = append(misplaced, id)
					rt.migrating[id] = true
				}
			}
			rt.mu.Unlock()
			for _, id := range misplaced {
				tried[id] = true
				if merr := rt.migrate(id, b); merr != nil {
					failures++
					rt.log.Warn("migration failed", "session", id, "from", b.base, "err", merr)
				}
				rt.mu.Lock()
				delete(rt.migrating, id)
				rt.mu.Unlock()
			}
			moved += len(misplaced)
		}
		if moved == 0 {
			return failures, err
		}
	}
}

// migrate moves one session from its current holder to its ring owner:
// export freezes the session on the source (its durable record stays
// behind as the rollback copy), import replays it on the destination,
// and the source copy is tombstoned — unless the two backends share a
// store, in which case the record the destination now serves from IS
// the source's record, and deleting it would destroy the session. On
// import failure the session is imported back onto the source, which
// clears its exported mark and re-lives it: a failed migration leaves
// the fleet exactly as it was.
//
// Every migration mints a trace id and drives all its control calls
// (export, import, rollback, tombstone) through clients stamping that
// id, so one grep across the fleet's logs reconstructs the move hop by
// hop. Fresh clients per migration because service.Client embeds
// atomics and must not be copied.
func (rt *Router) migrate(id string, from *backend) error {
	rt.mu.Lock()
	ownerBase, ok := rt.ring.Owner(id)
	to := rt.backends[ownerBase]
	rt.mu.Unlock()
	if !ok || to == nil {
		return fmt.Errorf("no remaining owner for session %s", id)
	}
	if to.base == from.base {
		return nil
	}
	trace := obs.NewTraceID()
	src := &service.Client{BaseURL: from.base, HTTPClient: rt.hc, Trace: trace, Logger: rt.log}
	dst := &service.Client{BaseURL: to.base, HTTPClient: rt.hc, Trace: trace, Logger: rt.log}
	snap, err := src.Export(id)
	if err != nil {
		if apiStatus(err) == http.StatusNotFound {
			return nil // deleted or idle-evicted concurrently; nothing to move
		}
		return fmt.Errorf("export: %w", err)
	}
	if _, err := dst.Import(id, snap); err != nil {
		if _, rb := src.Import(id, snap); rb != nil {
			// The session is frozen in the source store; re-import manually.
			rt.log.Error("migration rollback failed",
				"session", id, "backend", from.base, "trace", trace, "err", rb)
		}
		return fmt.Errorf("import on %s: %w", to.base, err)
	}
	if !(from.store != "" && from.store == to.store) {
		if err := src.Delete(id); err != nil && apiStatus(err) != http.StatusNotFound {
			// A stale rollback copy remains on the source.
			rt.log.Warn("tombstone failed", "session", id, "backend", from.base, "trace", trace, "err", err)
		}
	}
	rt.migrations.Add(1)
	rt.log.Info("session migrated",
		"session", id, "from", from.base, "to", to.base, "trace", trace)
	return nil
}

// Migrations reports completed session migrations since boot.
func (rt *Router) Migrations() int64 { return rt.migrations.Load() }

// probeLoop drives the health probes.
func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll probes every backend once. A down backend is probed but
// never auto-rejoined: it may hold live sessions the fleet has since
// revived elsewhere, and only an operator-driven Join (which
// rebalances) can reconcile that safely.
func (rt *Router) probeAll() {
	rt.mu.Lock()
	targets := make([]*backend, 0, len(rt.backends))
	for _, b := range rt.backends {
		targets = append(targets, b)
	}
	rt.mu.Unlock()
	for _, b := range targets {
		h, err := b.client.Health()
		rt.mu.Lock()
		if err != nil {
			b.fails++
			if !b.down && b.fails >= failAfter {
				b.down = true
				rt.ring.Remove(b.base)
				rt.log.Warn("backend marked down", "backend", b.id, "url", b.base, "fails", b.fails, "cause", "probe")
			}
		} else {
			if b.down && b.fails > 0 {
				// Once per recovery, not per tick: fails is reset just below.
				rt.log.Info("backend answers probes again; rejoin it via /fleet/join to restore it",
					"backend", b.id, "url", b.base)
			}
			b.fails = 0
			b.store = h.Store
			b.health = h
		}
		rt.mu.Unlock()
	}
}

// markDown takes a backend out of the ring immediately — called by the
// proxy on a transport error, which is stronger evidence than a missed
// probe.
func (rt *Router) markDown(b *backend) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if b.down {
		return
	}
	b.down = true
	b.fails = failAfter
	rt.ring.Remove(b.base)
	rt.log.Warn("backend marked down", "backend", b.id, "url", b.base, "cause", "proxy transport error")
}

// shedding reports whether b's last good probe put its overload
// controller on the shedding rung. Probe-cadence staleness is
// acceptable here: the backend's own admission control is still the
// authority, this is only the router declining to burn a proxy hop on
// a member that has already said no.
func (rt *Router) shedding(b *backend) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return service.ParseSLOMode(b.health.ControllerMode) == service.ModeShedding
}

// Owner reports which backend the ring maps id to (ok = false with no
// live backends).
func (rt *Router) Owner(id string) (string, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ring.Owner(id)
}

// upBackends snapshots the non-down backends.
func (rt *Router) upBackends() []*backend {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*backend, 0, len(rt.backends))
	for _, b := range rt.backends {
		if !b.down {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].base < out[j].base })
	return out
}

// BackendStatus is one fleet member in the /fleet view.
type BackendStatus struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	Up  bool   `json:"up"`
	// Sessions/Spilled/Workers mirror the backend's last good /healthz.
	Sessions       int    `json:"sessions"`
	Spilled        int    `json:"spilled"`
	WorkersTotal   int    `json:"workersTotal"`
	WorkersGranted int    `json:"workersGranted"`
	Store          string `json:"store,omitempty"`
	// ControllerMode is the backend's overload-controller rung from its
	// last good probe ("" when the backend runs without a controller).
	// The router sheds creates before proxying when the resolved owner
	// reports "shedding".
	ControllerMode string `json:"controllerMode,omitempty"`
}

// FleetStatus is the GET /fleet payload: the capacity view the
// placement layer works from.
type FleetStatus struct {
	Backends []BackendStatus `json:"backends"`
	// RingMembers is current ring membership (up backends only).
	RingMembers []string `json:"ringMembers"`
	// Migrating counts sessions currently mid-migration.
	Migrating int `json:"migrating"`
}

// Fleet reports the current fleet: membership, health, and per-member
// load from the latest probes.
func (rt *Router) Fleet() FleetStatus {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	fs := FleetStatus{
		Backends:    make([]BackendStatus, 0, len(rt.backends)),
		RingMembers: rt.ring.Members(),
		Migrating:   len(rt.migrating),
	}
	for _, b := range rt.backends {
		fs.Backends = append(fs.Backends, BackendStatus{
			ID: b.id, URL: b.base, Up: !b.down,
			Sessions: b.health.Sessions, Spilled: b.health.Spilled,
			WorkersTotal: b.health.WorkersTotal, WorkersGranted: b.health.WorkersGranted,
			Store: b.store, ControllerMode: b.health.ControllerMode,
		})
	}
	sort.Slice(fs.Backends, func(i, j int) bool { return fs.Backends[i].URL < fs.Backends[j].URL })
	return fs
}

// AggregateHealth sums the fleet's /healthz into the single-server
// shape, so health checks written against one server read the fleet
// unchanged. The controller mode reported is the worst rung any member
// stands on — the pessimistic capacity hint an upstream balancer or
// operator dashboard wants.
func (rt *Router) AggregateHealth() service.Health {
	var out service.Health
	worst := service.ModeNormal
	sawMode := false
	for _, b := range rt.upBackends() {
		h, err := b.client.Health()
		if err != nil {
			continue
		}
		out.Sessions += h.Sessions
		out.Spilled += h.Spilled
		out.WorkersTotal += h.WorkersTotal
		out.WorkersGranted += h.WorkersGranted
		if h.ControllerMode != "" {
			sawMode = true
			if m := service.ParseSLOMode(h.ControllerMode); m > worst {
				worst = m
			}
		}
	}
	if sawMode {
		out.ControllerMode = worst.String()
	}
	return out
}

// AggregateMetrics scrapes every up backend's /metrics and merges them
// into one fleet-wide service.Metrics (service.MergeMetrics says how) —
// so factcheck-loadtest pointed at a router scrapes fleet telemetry with
// the code it uses for one server.
func (rt *Router) AggregateMetrics(withBuckets bool) service.Metrics {
	var scrapes []service.Metrics
	for _, b := range rt.upBackends() {
		if m, err := b.client.Metrics(true); err == nil {
			scrapes = append(scrapes, m)
		}
	}
	return service.MergeMetrics("fleet", scrapes, withBuckets)
}

// apiStatus extracts the HTTP status from a service client error
// (0 for transport-level errors).
func apiStatus(err error) int {
	var apiErr *service.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status
	}
	return 0
}
