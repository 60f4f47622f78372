package service

import (
	"errors"
	"fmt"

	"factcheck/internal/core"
	"factcheck/internal/em"
	"factcheck/internal/factdb"
	"factcheck/internal/gibbs"
	"factcheck/internal/guidance"
	"factcheck/internal/obs"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// Sentinel errors, mapped to HTTP statuses by the API layer.
var (
	// ErrNotFound reports an unknown (or already evicted) session id.
	ErrNotFound = errors.New("service: session not found")
	// ErrWrongClaim reports an answer that does not address the claim
	// the guidance loop is currently asking about.
	ErrWrongClaim = errors.New("service: answer does not address the expected claim")
	// ErrSeq reports an answer whose client-declared transcript sequence
	// neither matches the transcript's current length nor identifies the
	// most recently applied request (a stale or out-of-order client).
	ErrSeq = errors.New("service: answer sequence does not match the transcript")
	// ErrDone reports an answer submitted to a finished session.
	ErrDone = errors.New("service: session has no unlabelled claims left")
	// ErrFull reports that the manager's session cap is reached.
	ErrFull = errors.New("service: session limit reached")
	// ErrExists reports an open or import under a session id that is
	// already in use on this backend.
	ErrExists = errors.New("service: session id already in use")
	// ErrMigrated reports a request for a session this backend exported
	// to another owner: the local copy is frozen and will not be revived.
	// The shard router never routes here; a direct client should ask the
	// router (or the new owner) instead.
	ErrMigrated = errors.New("service: session was exported to another backend")
	// ErrShutdown reports an operation after Manager.Shutdown.
	ErrShutdown = errors.New("service: manager is shut down")
	// ErrOverloaded reports a request shed by the SLO controller's
	// admission control (429 + Retry-After at the API layer): the server
	// is saturated past what graceful degradation recovers, and the
	// client should back off and retry.
	ErrOverloaded = errors.New("service: overloaded, request shed by admission control")
	// ErrPersist reports that the snapshot store failed; the in-memory
	// session (when one exists) is still consistent, but its durable
	// record may be stale until a later write succeeds.
	ErrPersist = errors.New("service: session persistence failed")
	// ErrMailboxFull reports a corpus delta rejected because the
	// session's ingestion mailbox is at capacity (429 + Retry-After at
	// the API layer): arrivals are outpacing the answer loop that drains
	// them, and the producer should back off and retry.
	ErrMailboxFull = errors.New("service: session ingestion mailbox is full")
)

// EMBudgets optionally overrides the inference budgets of em.Config;
// zero fields keep the defaults. Serving deployments lower these to
// trade marginal estimation accuracy for per-request latency.
type EMBudgets struct {
	BurnIn      int `json:"burnIn,omitempty"`
	Samples     int `json:"samples,omitempty"`
	IncBurnIn   int `json:"incBurnIn,omitempty"`
	IncSamples  int `json:"incSamples,omitempty"`
	EMIters     int `json:"emIters,omitempty"`
	HypoBurn    int `json:"hypoBurn,omitempty"`
	HypoSamples int `json:"hypoSamples,omitempty"`
}

// OpenRequest configures a new session over a synthetic corpus profile.
type OpenRequest struct {
	// Profile names a §8.1 corpus family: "wiki", "health" or "snopes".
	Profile string `json:"profile"`
	// Scale shrinks (or grows) the profile; 0 means 1 (published size).
	Scale float64 `json:"scale,omitempty"`
	// Seed drives corpus generation and all session randomness.
	Seed int64 `json:"seed"`
	// Strategy selects the guidance strategy: "hybrid" (default),
	// "info", "source", "uncertainty" or "random".
	Strategy string `json:"strategy,omitempty"`
	// Budget caps total validations (0 = all claims).
	Budget int `json:"budget,omitempty"`
	// CandidatePool bounds what-if scoring per iteration (0 = all).
	CandidatePool int `json:"candidatePool,omitempty"`
	// ConfirmEvery enables the §5.2 confirmation check at this effort
	// period (0 disables). Repair prompts raised by the check are
	// auto-skipped on the server path, since the ask/answer protocol has
	// no synchronous re-elicitation channel.
	ConfirmEvery float64 `json:"confirmEvery,omitempty"`
	// Communities, when >= 2, opens the session over a multi-community
	// corpus: that many independent replicas of the profile at 1/N size,
	// merged over disjoint id spaces (synth.GenerateCommunities). The
	// component structure is what the per-answer dirty-component path
	// feeds on; single-community profiles are (nearly) fully connected.
	Communities int `json:"communities,omitempty"`
	// FullSweepEvery sets the cadence of full EM parameter sweeps
	// (core.Options.FullSweepEvery): answers in between run the
	// component-restricted incremental inference + re-ranking path.
	// 0 selects the core default; 1 restores per-answer EM.
	FullSweepEvery int `json:"fullSweepEvery,omitempty"`
	// EM overrides individual inference budgets.
	EM *EMBudgets `json:"em,omitempty"`
}

// SessionSnapshot is the durable form of a server session: what opened
// it plus the full elicitation transcript. POSTing it back (the
// "restore" form of session creation) rebuilds the session
// bit-identically — by deterministic replay of the transcript, or,
// when Image is present and verifies against it, from the image.
type SessionSnapshot struct {
	// Version is the core snapshot encoding version
	// (core.SnapshotVersion); restore rejects snapshots from a newer
	// build instead of replaying them under changed semantics.
	Version      int                `json:"version,omitempty"`
	Config       OpenRequest        `json:"config"`
	Elicitations []core.Elicitation `json:"elicitations"`
	// Image is the session's state image at the end of the transcript
	// (core.Snapshot.Image; base64 in JSON). Optional in both
	// directions: a payload without one, or with one the importing
	// build cannot vouch for, restores by replay.
	Image []byte `json:"image,omitempty"`
}

// SessionInfo describes a newly opened session.
type SessionInfo struct {
	ID        string `json:"id"`
	Profile   string `json:"profile"`
	Claims    int    `json:"claims"`
	Sources   int    `json:"sources"`
	Documents int    `json:"documents"`
	// Precision is the automated (pre-validation) grounding precision
	// against the synthetic ground truth.
	Precision float64 `json:"precision"`
}

// Candidate is one entry of a guidance ranking, with the evidence
// context a human validator sees (cf. cmd/factcheck-session).
type Candidate struct {
	Claim     int     `json:"claim"`
	P         float64 `json:"p"`
	Documents int     `json:"documents"`
	Sources   int     `json:"sources"`
}

// NextResponse is the guidance ranking of the current iteration.
type NextResponse struct {
	ID         string      `json:"id"`
	Iteration  int         `json:"iteration"`
	Candidates []Candidate `json:"candidates"`
	Done       bool        `json:"done"`
	// Seq is the transcript sequence the next answer will commit at;
	// echo it in AnswerRequest.Seq to make the submission idempotent.
	Seq int `json:"seq"`
}

// AnswerRequest submits a verdict for the currently expected claim.
// Skip defers the claim (§8.5): the first skip moves the question to the
// second-best candidate, a second consecutive skip accepts the model
// value for it. A skip is recorded like an answer and advances the
// sequence (core.Session.Answer owns the protocol). Oracle asks the server to answer from the synthetic
// ground truth (the §8.1 simulated user), which is how auto-driven
// sessions and the smoke test run.
type AnswerRequest struct {
	Claim   int  `json:"claim"`
	Verdict bool `json:"verdict"`
	Skip    bool `json:"skip,omitempty"`
	Oracle  bool `json:"oracle,omitempty"`
	// Seq, when set, is the transcript sequence the client expects this
	// answer to commit at (from NextResponse.Seq / StateResponse.Seq;
	// after a skip, the skip's response carries the next one). It makes
	// submission idempotent against transport-level replays: a
	// connection torn down after the server applied the answer makes the
	// retry look like a fresh request, and without the sequence the
	// server could only answer it with a spurious conflict. A request
	// the transcript already holds at Seq — followed by nothing but
	// auto-skipped prompts and ingest records — is a duplicate and
	// returns the session's current state; a genuinely stale sequence is
	// rejected with ErrSeq.
	Seq *int `json:"seq,omitempty"`
}

// StateResponse reports a session's progress. Expected is the claim the
// loop is currently asking about (−1 once the session is done or before
// the first ranking is computed); answer loops can follow it without an
// extra GET /next round-trip.
type StateResponse struct {
	ID         string  `json:"id"`
	Iterations int     `json:"iterations"`
	Labeled    int     `json:"labeled"`
	Claims     int     `json:"claims"`
	Effort     float64 `json:"effort"`
	Z          float64 `json:"z"`
	Precision  float64 `json:"precision"`
	Done       bool    `json:"done"`
	Expected   int     `json:"expected"`
	// Seq is the transcript sequence the next answer will commit at (see
	// AnswerRequest.Seq).
	Seq       int       `json:"seq"`
	Marginals []float64 `json:"marginals,omitempty"`
}

// Health is the GET /healthz payload: live and spilled session counts
// plus worker-budget load.
type Health struct {
	Sessions       int `json:"sessions"`
	Spilled        int `json:"spilled"`
	WorkersTotal   int `json:"workersTotal"`
	WorkersGranted int `json:"workersGranted"`
	// Store identifies the backend's storage location (see
	// Manager.StoreLocation); "" when the store has no shareable
	// identity.
	Store string `json:"store,omitempty"`
	// ControllerMode is the overload controller's current rung
	// ("normal", "degraded", "shedding"); "" when the controller is
	// disabled. The router reads it to shed before proxying.
	ControllerMode string `json:"controllerMode,omitempty"`
}

// SessionList is the GET /sessions payload: the backend's sessions
// split by residence (see Manager.Sessions).
type SessionList struct {
	Live   []string `json:"live"`
	Stored []string `json:"stored"`
}

// Metrics is the GET /metrics payload, the load-telemetry superset of
// Health that factcheck-loadtest scrapes: session and worker-lane load,
// cumulative operation counters, and the server-side answer-latency
// histogram (seconds, measured around the whole Answer path — lock
// wait, inference, persistence).
type Metrics struct {
	// BackendID names the serving backend (Config.BackendID), so a
	// fleet-wide scrape can attribute the numbers below to a member.
	BackendID      string `json:"backendId,omitempty"`
	Sessions       int    `json:"sessions"`
	Spilled        int    `json:"spilled"`
	WorkersTotal   int    `json:"workersTotal"`
	WorkersGranted int    `json:"workersGranted"`
	// SessionsOpened counts sessions opened or restored since boot
	// (revivals of spilled sessions are not re-counted).
	SessionsOpened int64 `json:"sessionsOpened"`
	// AnswersServed counts successfully answered requests since boot.
	AnswersServed int64 `json:"answersServed"`
	// AnswerLatency digests the per-answer latency histogram.
	AnswerLatency stats.Summary `json:"answerLatency"`
	// AnswerLatencyBuckets is the raw log-bucketed histogram.
	AnswerLatencyBuckets []stats.HistBucket `json:"answerLatencyBuckets,omitempty"`
	// Endpoints breaks requests and errors down per API endpoint
	// (open, next, answer, state, snapshot, export, import, delete),
	// recorded by the HTTP layer.
	Endpoints map[string]EndpointCounters `json:"endpoints,omitempty"`
	// Controller is the overload controller's state (mode, breach/shed/
	// degraded-answer counters); nil when the controller is disabled. A
	// fleet scrape merges members' statuses via ControllerStatus.Merge.
	Controller *ControllerStatus `json:"controller,omitempty"`
	// LaneWaits is the worker budget's cumulative contention counter:
	// how many requests arrived to find every lane taken (the SLO
	// controller's saturation signal).
	LaneWaits int64 `json:"laneWaits"`
	// MailboxQueued is the number of corpus deltas currently queued
	// across live sessions' ingestion mailboxes.
	MailboxQueued int `json:"mailboxQueued"`
	// GainCacheHits/GainCacheMisses accumulate the sessions' guidance
	// gain-cache telemetry (sampled after each worker-holding request;
	// deleted sessions' counts are retained).
	GainCacheHits   int64 `json:"gainCacheHits"`
	GainCacheMisses int64 `json:"gainCacheMisses"`
	// RestoresImage counts sessions rebuilt from a verified state image
	// (revival of a spilled or recovered session, import, snapshot
	// restore); RestoresReplay counts, keyed by core's reason for not
	// using an image ("none": the record carried no image), those
	// rebuilt by replaying their whole transcript. ImageBytesWritten
	// sums the state images written into checkpoints.
	RestoresImage     int64            `json:"restoresImage"`
	RestoresReplay    map[string]int64 `json:"restoresReplay,omitempty"`
	ImageBytesWritten int64            `json:"imageBytesWritten"`
	// TableBuilds counts the sampler tables the sessions built since
	// boot (em.Engine.TableBuilds): one at the first sampling entry of an
	// opened, revived or grown session, and one per request that finds
	// its session parked (DESIGN.md §7).
	TableBuilds int64 `json:"tableBuilds"`
	// Stages digests the per-stage span latencies: the answer path's
	// (lane_acquire, ingest_apply, resample, rescore, wal_append, and
	// the whole-path answer) and restore, the rebuild of a session from
	// its durable form; StageBuckets carries the raw buckets when
	// the scrape asked for them — what the Prometheus exposition and
	// the fleet aggregation merge from.
	Stages       map[string]stats.Summary      `json:"stages,omitempty"`
	StageBuckets map[string][]stats.HistBucket `json:"stageBuckets,omitempty"`
}

// MergeMetrics folds scrapes — one Metrics per backend, each taken with
// buckets — into one under backendID, the fleet view a shard router
// serves: gauges and counters sum, replay reasons and per-endpoint
// counters sum per key, controller statuses merge via
// ControllerStatus.Merge, and the latency and stage histograms merge
// through their exported buckets (stats.LogHist.AbsorbBuckets), so the
// fleet quantiles are quantiles of the pooled observations. withBuckets
// keeps the merged raw buckets in the result. A field added to Metrics
// is merged here and nowhere else.
func MergeMetrics(backendID string, scrapes []Metrics, withBuckets bool) Metrics {
	out := Metrics{BackendID: backendID}
	var lat stats.LogHist
	stages := make(map[string]*stats.LogHist)
	for _, m := range scrapes {
		out.Sessions += m.Sessions
		out.Spilled += m.Spilled
		out.WorkersTotal += m.WorkersTotal
		out.WorkersGranted += m.WorkersGranted
		out.SessionsOpened += m.SessionsOpened
		out.AnswersServed += m.AnswersServed
		out.LaneWaits += m.LaneWaits
		out.MailboxQueued += m.MailboxQueued
		out.GainCacheHits += m.GainCacheHits
		out.GainCacheMisses += m.GainCacheMisses
		out.RestoresImage += m.RestoresImage
		out.ImageBytesWritten += m.ImageBytesWritten
		out.TableBuilds += m.TableBuilds
		for reason, n := range m.RestoresReplay {
			if out.RestoresReplay == nil {
				out.RestoresReplay = make(map[string]int64)
			}
			out.RestoresReplay[reason] += n
		}
		for ep, c := range m.Endpoints {
			if out.Endpoints == nil {
				out.Endpoints = make(map[string]EndpointCounters)
			}
			agg := out.Endpoints[ep]
			agg.Requests += c.Requests
			agg.Errors += c.Errors
			out.Endpoints[ep] = agg
		}
		if m.Controller != nil {
			if out.Controller == nil {
				out.Controller = &ControllerStatus{Mode: ModeNormal.String()}
			}
			out.Controller.Merge(*m.Controller)
		}
		lat.AbsorbBuckets(m.AnswerLatencyBuckets, m.AnswerLatency)
		for stage, bks := range m.StageBuckets {
			h := stages[stage]
			if h == nil {
				h = &stats.LogHist{}
				stages[stage] = h
			}
			h.AbsorbBuckets(bks, m.Stages[stage])
		}
	}
	out.AnswerLatency = lat.Summary()
	if withBuckets {
		out.AnswerLatencyBuckets = lat.Buckets()
	}
	for stage, h := range stages {
		if out.Stages == nil {
			out.Stages = make(map[string]stats.Summary, len(stages))
		}
		out.Stages[stage] = h.Summary()
		if withBuckets {
			if out.StageBuckets == nil {
				out.StageBuckets = make(map[string][]stats.HistBucket, len(stages))
			}
			out.StageBuckets[stage] = h.Buckets()
		}
	}
	return out
}

// EndpointCounters is one endpoint's cumulative request telemetry in
// Metrics.Endpoints.
type EndpointCounters struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
}

// TraceResponse is the GET /v1/sessions/{id}/trace payload: the
// session's buffered spans, oldest first.
type TraceResponse struct {
	ID    string     `json:"id"`
	Spans []obs.Span `json:"spans"`
}

// IngestRequest streams one corpus delta into a live session (POST
// /v1/sessions/{id}/claims and .../sources). Because this server
// doubles as the evaluation harness, a delta introducing claims must
// carry their ground truth (Delta.Truth, one value per new claim):
// oracle answers and precision reporting are defined over the full
// corpus, ingested claims included. A production deployment ingesting
// real corpora would drop that requirement along with the other
// truth-derived fields.
type IngestRequest struct {
	Delta factdb.Delta `json:"delta"`
}

// IngestResponse acknowledges an accepted corpus delta.
type IngestResponse struct {
	ID string `json:"id"`
	// Applied reports that the delta (and everything queued ahead of
	// it) was applied to the live session before this response was
	// sent. False means it passed validation and is queued in the
	// session's mailbox — it will be applied before the next ranking or
	// answer, but is not yet in the transcript and would not survive a
	// crash.
	Applied bool `json:"applied"`
	// Queued is the number of deltas waiting in the mailbox after this
	// request (0 when Applied).
	Queued int `json:"queued"`
	// Claims/Sources/Documents are the session's virtual corpus totals:
	// the database plus every queued delta.
	Claims    int `json:"claims"`
	Sources   int `json:"sources"`
	Documents int `json:"documents"`
	// Seq is the transcript sequence after this request's effects;
	// meaningful only when Applied (a queued delta has no transcript
	// position yet).
	Seq int `json:"seq,omitempty"`
}

// BuildOptions translates an OpenRequest into the core session options
// the server runs it with, refusing a negative field by its JSON name
// (zero selects the default). Workers and Lanes are left zero here;
// BuildSession installs the lender in both. It and BuildCorpus stay
// exported because the benchmark harness times corpus generation and
// session open apart.
func BuildOptions(req OpenRequest) (core.Options, error) {
	name := req.Strategy
	if name == "" {
		name = "hybrid"
	}
	strat, err := guidance.ByName(name)
	if err != nil {
		return core.Options{}, err
	}
	cfg := em.DefaultConfig()
	var o EMBudgets
	if req.EM != nil {
		o = *req.EM
	}
	for _, f := range []struct {
		name string
		v    float64
		dst  *int // the em.Config budget a positive value overrides
	}{
		{"budget", float64(req.Budget), nil},
		{"candidatePool", float64(req.CandidatePool), nil},
		{"confirmEvery", req.ConfirmEvery, nil},
		{"fullSweepEvery", float64(req.FullSweepEvery), nil},
		{"em.burnIn", float64(o.BurnIn), &cfg.BurnIn},
		{"em.samples", float64(o.Samples), &cfg.Samples},
		{"em.incBurnIn", float64(o.IncBurnIn), &cfg.IncBurnIn},
		{"em.incSamples", float64(o.IncSamples), &cfg.IncSamples},
		{"em.emIters", float64(o.EMIters), &cfg.EMIters},
		{"em.hypoBurn", float64(o.HypoBurn), &cfg.HypoBurn},
		{"em.hypoSamples", float64(o.HypoSamples), &cfg.HypoSamples},
	} {
		switch {
		case f.v < 0:
			return core.Options{}, fmt.Errorf("service: %s is %v; it may not be negative", f.name, f.v)
		case f.v > 0 && f.dst != nil:
			*f.dst = int(f.v)
		}
	}
	return core.Options{
		Strategy:       strat,
		Budget:         req.Budget,
		CandidatePool:  req.CandidatePool,
		ConfirmEvery:   req.ConfirmEvery,
		FullSweepEvery: req.FullSweepEvery,
		EM:             cfg,
		Seed:           req.Seed,
	}, nil
}

// Lender is the worker budget a session is built on: Total is the width
// its parallel sections may reach, Acquire holds the base lane a request
// runs on, and the gibbs.Lender half lends each section its extras.
// *Budget implements it.
type Lender interface {
	gibbs.Lender
	Total() int
	Acquire() (release func())
}

// BuildSession builds the core session req denotes over the corpus it
// generates: fresh when snap is nil, restored from snap otherwise (from
// its state image when that verifies, by replay of its transcript
// otherwise). The corpus's Truth is grown by the ingest records the
// transcript replays, so oracle answers and precision cover every claim
// the session holds. With a lender the session's sections are as wide as
// its whole budget and borrow what is free (Workers = Total, Lanes =
// lender), and one base lane is held around the initial inference or
// restore; a nil lender leaves both zero, for a caller that owns the
// machine. The manager builds every session it serves here, and every
// in-process reference a served session is compared with is built here
// too.
func BuildSession(req OpenRequest, snap *core.Snapshot, lender Lender) (*core.Session, *synth.Corpus, error) {
	opts, err := BuildOptions(req)
	if err != nil {
		return nil, nil, err
	}
	corpus, err := BuildCorpus(req)
	if err != nil {
		return nil, nil, err
	}
	release := func() {}
	if lender != nil {
		opts.Workers, opts.Lanes = lender.Total(), lender
		release = lender.Acquire()
	}
	var cs *core.Session
	if snap == nil {
		cs, err = core.OpenSession(corpus.DB, opts)
	} else {
		cs, err = core.RestoreSession(corpus.DB, opts, *snap)
	}
	release()
	if err != nil {
		return nil, nil, err
	}
	if snap != nil {
		// The database itself is truth-free; the truth of ingested
		// claims rides inside the deltas replay re-applied.
		for _, e := range snap.Elicitations {
			if e.Ingest != nil {
				corpus.Truth = append(corpus.Truth, e.Ingest.Truth...)
			}
		}
	}
	return cs, corpus, nil
}

// Admission bounds on a generated session corpus: one oversized open
// request must not be able to exhaust the server's memory.
const (
	maxCorpusClaims    = 20_000
	maxCorpusDocuments = 400_000
	maxCorpusSources   = 200_000
)

// BuildCorpus generates the session corpus a request opens over,
// applying the scale normalisation and the admission caps. It is
// exported because the workload subsystem must regenerate the same
// corpus client-side (synthetic corpora are a pure function of the
// request) to know the ground truth its simulated users answer from —
// sharing the constructor is what guarantees the two sides agree. The
// same purity makes the database's rows regenerable: BuildCorpus
// attaches itself, over the fields the corpus is a function of, as the
// database's regenerator (factdb.DB.SetRegenerator), so a finished
// session can drop them (DESIGN.md §7). A database it returns must
// therefore back one session.
func BuildCorpus(req OpenRequest) (*synth.Corpus, error) {
	req = OpenRequest{Profile: req.Profile, Scale: req.Scale, Seed: req.Seed, Communities: req.Communities}
	c, err := generateCorpus(req)
	if err != nil {
		return nil, err
	}
	c.DB.SetRegenerator(func() (*factdb.DB, error) {
		c, err := generateCorpus(req)
		if err != nil {
			return nil, err
		}
		return c.DB, nil
	})
	return c, nil
}

// generateCorpus is BuildCorpus without the regenerator.
func generateCorpus(req OpenRequest) (*synth.Corpus, error) {
	prof, err := synth.ByName(req.Profile)
	if err != nil {
		return nil, err
	}
	scale := req.Scale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 {
		return nil, fmt.Errorf("service: negative corpus scale %v", scale)
	}
	p := prof
	if scale != 1 {
		p = prof.Scaled(scale)
	}
	parts := req.Communities
	if parts < 0 {
		return nil, fmt.Errorf("service: negative community count %d", parts)
	}
	if parts <= 1 {
		parts = 1
	}
	// Admission sizes the merged corpus: parts replicas of the
	// per-community sub-profile (whose floors can round sizes up).
	sub := synth.CommunityProfile(p, parts)
	if sub.Claims*parts > maxCorpusClaims || sub.Documents*parts > maxCorpusDocuments || sub.Sources*parts > maxCorpusSources {
		return nil, fmt.Errorf(
			"service: scale %v × %d communities yields %d claims / %d documents / %d sources, above the serving cap (%d/%d/%d)",
			scale, parts, sub.Claims*parts, sub.Documents*parts, sub.Sources*parts,
			maxCorpusClaims, maxCorpusDocuments, maxCorpusSources)
	}
	if parts == 1 {
		return synth.GenerateChecked(p, req.Seed)
	}
	if err := sub.Validate(); err != nil {
		return nil, err
	}
	return synth.GenerateCommunities(p, parts, req.Seed), nil
}
