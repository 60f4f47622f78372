// Package service is the multi-session serving layer over the Alg. 1
// validation loop: a session manager that hosts many concurrent
// validation sessions, an HTTP/JSON API (http.go) exposing the
// ask/answer protocol, and a Go client (client.go).
//
// Design constraints, in order:
//
//  1. Trace fidelity. A session served over the API must produce a
//     selection trace bit-identical to the in-process core.Session path
//     for the same (profile, seed, options). This falls out of two
//     properties: core.Session.Pending caches the per-iteration ranking
//     (so clients may poll "which claim next?" idempotently), and all
//     inference is bit-identical across worker counts (so the shared
//     budget may grant any parallelism per request).
//
//  2. Bounded resources. All sessions multiplex onto one Budget of
//     worker lanes sized to the machine, a session cap bounds admission,
//     and an idle TTL spills abandoned sessions to the snapshot store,
//     releasing their corpus and engine; a spilled session revives
//     transparently on its next request and stops counting against the
//     cap meanwhile. What-if scoring holds no lane in any session: each
//     round borrows its worker chains from guidance.Pool's process-wide
//     free list and returns them, so the scratch scales with the rounds
//     in flight, not with the sessions alive.
//
//  3. Durability. Every session can be exported as a SessionSnapshot —
//     its opening configuration plus the elicitation transcript, and
//     beside them a verified state image — and reopened later (same
//     process or not) via core.RestoreSession: from the image plus a
//     replay of whatever transcript lies behind it, or, whenever the
//     image is absent or in doubt, by deterministic replay of the
//     whole transcript. The manager keeps a persist.Store current as a
//     side effect of serving (checkpoint with image at open, WAL append
//     per answer, a fresh image every CheckpointEvery), so with a file-backed store a
//     SIGKILLed server recovers every session on the next boot with a
//     bit-identical selection trace.
//
// Sessions are opened over synthetic corpus profiles (§8.1), which is
// why the API can report precision against ground truth and offer
// oracle-answered validation: the server doubles as the evaluation
// harness for serving experiments. A production deployment would open
// sessions over ingested corpora and drop the truth-derived fields.
package service

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/factdb"
	"factcheck/internal/obs"
	"factcheck/internal/persist"
	"factcheck/internal/stats"
)

// MailboxCap bounds each session's ingestion mailbox: corpus deltas
// queued (validated but not yet applied) between answers. A delta
// arriving at a full mailbox is refused with ErrMailboxFull — the
// streaming path's backpressure.
const MailboxCap = 16

// Config tunes a Manager.
type Config struct {
	// BackendID names this backend in /metrics so a shard router's
	// fleet view can attribute load to members ("" = anonymous).
	BackendID string
	// Workers is the shared worker-lane budget all sessions multiplex
	// onto (0 = GOMAXPROCS).
	Workers int
	// MaxSessions caps concurrently live sessions (0 = 1024). Sessions
	// spilled to the store do not count against the cap.
	MaxSessions int
	// IdleTTL spills sessions idle for at least this long to the store
	// and releases their in-memory resources (0 disables the janitor;
	// EvictIdle can still be called manually). A spilled session is
	// revived transparently on its next request.
	IdleTTL time.Duration
	// Store persists sessions: checkpointed at open, appended to on
	// every answer, a fresh image every CheckpointEvery answers. nil uses
	// an in-memory store (sessions survive eviction, not the process);
	// a persist.FileStore survives SIGKILL and machine restarts.
	Store persist.Store
	// CheckpointEvery cuts a fresh checkpoint (state image) after this
	// many appended elicitations (0 = 16): a restore replays at most
	// that many behind the image.
	CheckpointEvery int
	// SLO enables the overload controller: graceful degradation to the
	// uncertainty ranking while the windowed answer-latency p99 breaches
	// SLO.P99, and 429-shedding admission control once saturation
	// persists. The zero value disables it.
	SLO SLOConfig
}

// Session is one server-hosted validation session. All methods are
// called through the Manager, which serialises them per session under
// s.mu while letting distinct sessions proceed concurrently.
type Session struct {
	id string
	mu sync.Mutex
	// core is the Alg. 1 session. It owns the §8.5 answer protocol, a
	// pending skip included (core.Session.Answer), so everything an
	// answer changes is in its transcript and travels with every spill,
	// checkpoint and export; the fields below hold nothing of it.
	core *core.Session
	// truth and profile are what a served session needs of its
	// generated corpus besides the database (core.DB): the ground truth
	// oracle answers and precision read, grown as deltas land, and the
	// profile's name. The latent source trust, the posting order and
	// the rest of the synth.Corpus are read by no served path and are
	// not kept.
	truth   []bool
	profile string
	cfg     OpenRequest
	// stored is the transcript length the store holds: a checkpoint
	// hands it only the records from here on (persist.Record.From). 0
	// until the first checkpoint of an opened or imported session, and
	// after a failed append, whose repair hands the whole transcript.
	stored int
	// walLen counts elicitations appended to the store since the last
	// checkpoint; reaching Config.CheckpointEvery cuts a fresh image.
	walLen int
	// boxMu guards the ingestion mailbox independently of mu: an arrival
	// must enqueue (or bounce with ErrMailboxFull) without waiting for
	// inference running under mu. boxClaims/boxSources/boxDocs are the
	// session's virtual corpus totals — the database's counts plus every
	// queued delta — maintained here so enqueue-time validation never
	// reads the database while another request is growing it under mu;
	// srcDim/docDim are the corpus feature dimensionalities (immutable).
	// Queue slots are deltas already validated against exactly the shape
	// they will apply at, which makes apply-time failure impossible by
	// induction (Manager.IngestCtx validates with factdb.Delta.Validate
	// against these totals). The mailbox is in-memory
	// only: a delta acknowledged as queued is applied at the latest by
	// the next worker-holding request, but is lost if the process dies
	// or the session is deleted before then; producers that need more
	// check IngestResponse.Applied. No delta is applied twice: neither
	// the client nor the router re-sends an ingest after a transport
	// failure past the dial (Resendable), since it has no idempotency
	// key.
	boxMu                          sync.Mutex
	box                            []factdb.Delta
	boxClaims, boxSources, boxDocs int
	srcDim, docDim                 int

	// spans is the bounded per-session span ring behind
	// GET /v1/sessions/{id}/trace. It has its own lock and recording
	// into it never blocks on (or draws from) the inference path, so
	// tracing is trace-neutral by construction. The ring does not
	// survive a spill or migration — spans are diagnostics of this
	// process's serving, not session state.
	spans *obs.Ring
	// gcHits/gcMisses memoise the last sampled gain-cache counters, so
	// the manager can fold per-answer deltas into its cumulative
	// telemetry without /metrics ever taking s.mu (guarded by s.mu).
	gcHits, gcMisses int64
	// builds is the engine's table build count as countBuilds last
	// folded it into the manager's (guarded by s.mu).
	builds int

	lastUsed time.Time // guarded by the manager's mu
}

// spanRingCap bounds each session's span ring: 64 spans ≈ the last
// ~10 answers with their stage decomposition — enough to explain "why
// was that slow" after the fact at a few KB per session.
const spanRingCap = 64

// Manager hosts concurrent sessions over one shared worker budget.
type Manager struct {
	cfg    Config
	budget *Budget
	store  persist.Store
	nowFn  func() time.Time // test hook
	// slo is the overload controller (nil when Config.SLO disables it);
	// epoch anchors its float64-seconds clock.
	slo   *SLOController
	epoch time.Time

	// telemetry guards the cumulative serving counters behind /metrics;
	// it is separate from mu so scrapes never contend with routing.
	telemetry struct {
		sync.Mutex
		sessionsOpened int64
		answersServed  int64
		answerLatency  *stats.LogHist
		endpoints      map[string]EndpointCounters
		// gainHits/gainMisses accumulate the per-session gain-cache
		// deltas sampled after each worker-holding request (see
		// sampleGainCache); they survive session deletion.
		gainHits, gainMisses int64
		// restoresImage counts sessions rebuilt from a verified state
		// image, restoresReplay — by core's reason for not using one —
		// those rebuilt by replaying their whole transcript; imageBytes
		// sums the images written into checkpoints.
		restoresImage  int64
		restoresReplay map[string]int64
		imageBytes     int64
	}

	// stages aggregates the answer path's span durations per stage; it
	// carries its own lock (inside obs.Stages), so recording never
	// contends with the telemetry mutex or mu.
	stages *obs.Stages

	mu sync.Mutex
	// slots is the one id table: every id this backend knows beyond its
	// store is in exactly one slot state (see slot). An id absent here is
	// unknown or spilled — the store decides. guarded by mu
	slots map[string]*slot
	// warm lists the live sessions whose database holds its base (and
	// so may hold sampler tables), least recently served first: at most
	// budget.Total() of them once a touchLocked has settled (see there).
	// guarded by mu
	warm []*Session
	// tableBuilds sums the sessions' table builds (countBuilds).
	tableBuilds atomic.Int64
	// guarded by mu
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// slot is one id's entry in Manager.slots, in exactly one state:
//
//   - building (done != nil): an open, import or revival owns the id
//     from claimLocked to settle and holds a seat under MaxSessions.
//     Requests for an id being revived wait on done and look again;
//     an id being opened is not published yet, so they get ErrNotFound.
//   - live (sess != nil): the session serves requests.
//   - exported (exported, nothing else): Export froze the session and
//     kept its record as the rollback copy; requests get ErrMigrated
//     until an Import reclaims the id or a Delete confirms the move.
//     The mark stays under an Import's build, so a failed one falls
//     back to it.
//
// Every field is guarded by the manager's mu.
type slot struct {
	sess *Session
	done chan struct{} // closed when the build settles
	kind buildKind     // who is building
	// deleted is left by a Delete that removed the record under a build:
	// the build settles to nothing instead of resurrecting the session.
	deleted  bool
	exported bool
}

// buildKind says which construction owns a building slot.
type buildKind uint8

const (
	buildOpen    buildKind = iota // Open, OpenAs, Restore
	buildImport                   // may reclaim an exported id; its record outlives a refused publish
	buildRevival                  // get, from the stored record
)

// NewManager creates a manager and, when cfg.IdleTTL > 0, starts its
// eviction janitor. Call Shutdown to release everything. Sessions
// already present in cfg.Store (from a previous process, or spilled by
// eviction) are served transparently: a request for a stored id revives
// the session by deterministic replay. Call RecoverAll to verify and
// count them eagerly at boot.
func NewManager(cfg Config) *Manager {
	// Zero and negative values select the defaults.
	cfg.Workers = cmp.Or(max(cfg.Workers, 0), runtime.GOMAXPROCS(0))
	cfg.MaxSessions = cmp.Or(max(cfg.MaxSessions, 0), 1024)
	cfg.CheckpointEvery = cmp.Or(max(cfg.CheckpointEvery, 0), 16)
	if cfg.Store == nil {
		cfg.Store = persist.NewMemStore()
	}
	m := &Manager{
		cfg:    cfg,
		budget: NewBudget(cfg.Workers),
		store:  cfg.Store,
		nowFn:  time.Now,
		slots:  make(map[string]*slot),
		slo:    NewSLOController(cfg.SLO),
		epoch:  time.Now(),
		stop:   make(chan struct{}),
		stages: obs.NewStages(),
	}
	m.telemetry.answerLatency = stats.NewLogHist()
	m.telemetry.endpoints = make(map[string]EndpointCounters)
	m.telemetry.restoresReplay = make(map[string]int64)
	if cfg.IdleTTL > 0 {
		m.wg.Add(1)
		go m.janitor()
	}
	return m
}

// nowSec is the controller's clock: wall seconds since the manager was
// built, from the same nowFn tests hook.
func (m *Manager) nowSec() float64 { return m.nowFn().Sub(m.epoch).Seconds() }

// waitsNow samples the controller's saturation signal: the budget's
// cumulative contention counter, diffed per evaluation window inside
// the controller.
func (m *Manager) waitsNow() int64 { return m.budget.Waits() }

// sheddingNow reports whether admission control is currently rejecting
// load; the query itself advances the controller's evaluation clock.
func (m *Manager) sheddingNow() bool {
	if m.slo == nil {
		return false
	}
	return m.slo.ModeAt(m.nowSec(), m.waitsNow()) == ModeShedding
}

// ControllerMode returns the controller's current rung as a string, ""
// when the controller is disabled — the Health payload's capacity hint
// a shard router sheds-before-proxy on.
func (m *Manager) ControllerMode() string {
	if m.slo == nil {
		return ""
	}
	return m.slo.ModeAt(m.nowSec(), m.waitsNow()).String()
}

// Budget exposes the shared worker budget (for monitoring).
func (m *Manager) Budget() *Budget { return m.budget }

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.liveLocked())
}

// liveLocked returns the live sessions; m.mu must be held.
func (m *Manager) liveLocked() []*Session {
	out := make([]*Session, 0, len(m.slots))
	for _, sl := range m.slots {
		if sl.sess != nil {
			out = append(out, sl.sess)
		}
	}
	return out
}

// served marks s as the most recently served session (touchLocked);
// s.mu must be held.
func (m *Manager) served(s *Session) {
	m.mu.Lock()
	m.touchLocked(s)
	m.mu.Unlock()
}

// touchLocked makes s the most recently served member of the warm set
// after a lane-holding request or a build, or takes it out when its
// database holds no base, and parks the least recently served members
// beyond the lane count. At most budget.Total() requests sample or rank
// at once, so no more sessions than that need their base, indexes and
// sampler tables between requests. Parking is the release a Done
// session gets (core.Session.Release); the next ranking, sampling entry
// or ingest regenerates what it dropped, bit for bit (DESIGN.md §7). A
// member whose lock is held is mid-request: it stays, and the next
// overflow tries it again. s itself is never parked here, whether or
// not the caller holds its lock. m.mu must be held.
func (m *Manager) touchLocked(s *Session) {
	m.dropLocked(s)
	if !s.core.DB.BaseReleased() {
		m.warm = append(m.warm, s)
	}
	for i := 0; len(m.warm) > m.budget.Total() && i < len(m.warm); {
		v := m.warm[i]
		if v == s || !v.mu.TryLock() {
			i++
			continue
		}
		v.core.Release()
		v.mu.Unlock()
		m.warm = slices.Delete(m.warm, i, i+1)
	}
}

// dropLocked takes s out of the warm set, so that the set pins no
// session that leaves the table, and counts its table builds; m.mu and
// s.mu must be held, or s be unpublished.
func (m *Manager) dropLocked(s *Session) {
	m.warm = slices.DeleteFunc(m.warm, func(w *Session) bool { return w == s })
	m.countBuilds(s)
}

// countBuilds folds the table builds s's engine made since the last
// call into the manager's count. Builds happen under s.mu, and they are
// folded when the build settles, when the request that made them ends
// (touchLocked) and when the session leaves the table (dropLocked);
// s.mu must be held, or s be unpublished.
func (m *Manager) countBuilds(s *Session) {
	n := s.core.Engine.TableBuilds()
	m.tableBuilds.Add(int64(n - s.builds))
	s.builds = n
}
