// Package factcheck is a from-scratch Go implementation of "User Guidance
// for Efficient Fact Checking" (Nguyen Thanh Tam et al., PVLDB 12, 2019):
// a framework that guides users through the validation of extracted
// claims so that a high-precision knowledge base is reached with minimal
// manual effort.
//
// The library provides:
//
//   - a probabilistic fact database ⟨S, D, C, P⟩ over sources, documents
//     and claims (§2.1);
//   - iCRF, an incremental EM inference engine over a Conditional Random
//     Field with mutual source-claim reinforcement (§3);
//   - guidance strategies that select the most beneficial claims to
//     validate: information-driven, source-driven and a hybrid roulette,
//     plus random and uncertainty-sampling baselines (§4);
//   - the complete validation process with robustness against erroneous
//     user input (§5), early-termination indicators (§6.1), and greedy
//     submodular batch selection (§6.2);
//   - a streaming engine with online EM for continuously arriving claims
//     (§7);
//   - synthetic corpora reproducing the shape of the paper's three
//     evaluation datasets, and user/expert/crowd simulators (§8).
//
// Quick start:
//
//	corpus := factcheck.GenerateCorpus(factcheck.Wikipedia.Scaled(0.3), 1)
//	session := factcheck.NewSession(corpus.DB, factcheck.Options{
//		Goal: func(s *factcheck.Session) bool {
//			return s.Precision(corpus.Truth) >= 0.9
//		},
//	})
//	n := session.Run(&factcheck.Oracle{Truth: corpus.Truth})
//	fmt.Printf("validated %d of %d claims\n", n, corpus.DB.NumClaims)
//
// The exported names are aliases of the implementation packages under
// internal/, so the full documentation of each type lives with its
// implementation.
package factcheck

import (
	"factcheck/internal/core"
	"factcheck/internal/em"
	"factcheck/internal/factdb"
	"factcheck/internal/guidance"
	"factcheck/internal/persist"
	"factcheck/internal/service"
	"factcheck/internal/sim"
	"factcheck/internal/stream"
	"factcheck/internal/synth"
	"factcheck/internal/termination"
)

// Data model (§2.1).
type (
	// DB is the structural part of a probabilistic fact database:
	// sources, documents, claims and the CRF clique index. Generated
	// corpora come with one (Corpus.DB); to build one by hand, set
	// NumClaims, add rows with AddSource (a feature vector) and
	// AddDocument (publishing source, feature vector, claim references),
	// then call Finalize.
	DB = factdb.DB
	// ClaimRef links a document to a claim with a stance (AddDocument).
	ClaimRef = factdb.ClaimRef
	// Stance is Support or Refute.
	Stance = factdb.Stance
	// State is the probabilistic part P with user labels.
	State = factdb.State
	// Grounding is a trusted-fact assignment g : C → {0, 1}.
	Grounding = factdb.Grounding
)

// Stance values.
const (
	Support = factdb.Support
	Refute  = factdb.Refute
)

// NewState returns the maximum-entropy state over n claims.
func NewState(n int) *State { return factdb.NewState(n) }

// Validation process (§5).
type (
	// Session is a running validation process (Alg. 1).
	Session = core.Session
	// Options configures a session.
	Options = core.Options
	// User elicits validation verdicts.
	User = core.User
	// Validation is one elicited verdict.
	Validation = core.Validation
	// CheckResult reports a §5.2 confirmation check.
	CheckResult = core.CheckResult
	// Elicitation is one recorded user interaction (claim, response).
	Elicitation = core.Elicitation
	// SessionSnapshot is a session's replayable transcript; see
	// Session.Snapshot and RestoreSession.
	SessionSnapshot = core.Snapshot
)

// ErrSessionClosed is returned by operations on a session after Close.
var ErrSessionClosed = core.ErrClosed

// NewSession builds a session over db and performs the initial inference.
// It panics on an unusable database; use OpenSession to handle invalid
// input gracefully.
func NewSession(db *DB, opts Options) *Session { return core.NewSession(db, opts) }

// OpenSession is NewSession with input validation: a nil, empty or
// evidence-free database yields an error instead of a panic.
func OpenSession(db *DB, opts Options) (*Session, error) { return core.OpenSession(db, opts) }

// RestoreSession rebuilds a session from a snapshot by deterministically
// replaying its transcript against the same database and options; the
// restored session is bit-identical to the snapshotted one.
func RestoreSession(db *DB, opts Options, snap SessionSnapshot) (*Session, error) {
	return core.RestoreSession(db, opts, snap)
}

// Inference (§3).
type (
	// Engine is the iCRF incremental inference engine.
	Engine = em.Engine
	// EngineConfig tunes the inference budgets.
	EngineConfig = em.Config
)

// NewEngine creates an inference engine with maximum-entropy parameters.
func NewEngine(db *DB, cfg EngineConfig, seed int64) *Engine {
	return em.NewEngine(db, cfg, seed)
}

// DefaultEngineConfig returns the budgets used throughout the paper's
// experiments.
func DefaultEngineConfig() EngineConfig { return em.DefaultConfig() }

// Guidance strategies (§4).
type (
	// Strategy ranks unlabelled claims by expected validation benefit.
	Strategy = guidance.Strategy
	// RandomStrategy is the random baseline.
	RandomStrategy = guidance.Random
	// UncertaintyStrategy is the uncertainty-sampling baseline.
	UncertaintyStrategy = guidance.Uncertainty
	// InfoGainStrategy is the information-driven strategy (§4.2).
	InfoGainStrategy = guidance.InfoGain
	// SourceGainStrategy is the source-driven strategy (§4.3).
	SourceGainStrategy = guidance.SourceGain
	// HybridStrategy is the dynamic roulette of §4.4.
	HybridStrategy = guidance.Hybrid
	// BatchSelector assembles greedy submodular top-k batches (§6.2).
	BatchSelector = guidance.BatchSelector
	// GainCache is the cross-answer gain/entropy cache behind the
	// incremental dirty-component re-ranking path; sessions own one
	// (Session.GainCache; nil in batch mode and at FullSweepEvery = 1)
	// and it is exact — cached rankings are bit-identical to a
	// from-scratch recompute.
	GainCache = guidance.GainCache
)

// Early termination (§6.1).
type (
	// Tracker accumulates convergence indicators (URR, CNG, PRE, PIR).
	Tracker = termination.Tracker
	// Observation carries one iteration's indicator inputs.
	Observation = termination.Observation
	// Thresholds configures Tracker.ShouldStop.
	Thresholds = termination.Thresholds
)

// NewTracker creates an indicator tracker with the given window.
func NewTracker(window int) *Tracker { return termination.NewTracker(window) }

// Streaming (§7).
type (
	// StreamEngine is the online EM engine of Alg. 2.
	StreamEngine = stream.Engine
	// StreamConfig tunes the stochastic approximation.
	StreamConfig = stream.Config
)

// NewStreamEngine creates a streaming engine for the given parameter
// dimensionality (use Model().Dim() of an Engine over the same schema).
func NewStreamEngine(dim int, cfg StreamConfig) *StreamEngine {
	return stream.New(dim, cfg)
}

// DefaultStreamConfig returns the §7 defaults.
func DefaultStreamConfig() StreamConfig { return stream.DefaultConfig() }

// Multi-session serving (the guidance loop over HTTP).
type (
	// ServiceManager hosts many concurrent validation sessions over one
	// shared, bounded worker budget with idle-TTL eviction.
	ServiceManager = service.Manager
	// ServiceConfig tunes a ServiceManager.
	ServiceConfig = service.Config
	// ServiceServer exposes a manager over an HTTP/JSON API.
	ServiceServer = service.Server
	// ServiceClient is the Go client for the HTTP API.
	ServiceClient = service.Client
	// ServiceOpenRequest configures a served session.
	ServiceOpenRequest = service.OpenRequest
	// ServiceAnswer submits one verdict to a served session.
	ServiceAnswer = service.AnswerRequest
	// ServiceSnapshot is the durable form of a served session.
	ServiceSnapshot = service.SessionSnapshot
	// ServiceHealth is the server's liveness/load report.
	ServiceHealth = service.Health
	// ServiceMetrics is the GET /metrics serving-telemetry payload.
	ServiceMetrics = service.Metrics
	// ServiceRetryPolicy bounds the client's retry-with-backoff on
	// transient connection errors (off unless set on a ServiceClient).
	ServiceRetryPolicy = service.RetryPolicy
	// ServiceSLOConfig arms the overload controller: degrade what-if
	// scoring, then shed load with 429 + Retry-After, when the windowed
	// answer-latency p99 breaches the SLO (ServiceConfig.SLO).
	ServiceSLOConfig = service.SLOConfig
	// ServiceControllerStatus is the controller's /metrics payload
	// (ServiceMetrics.Controller; the router merges them fleet-wide).
	ServiceControllerStatus = service.ControllerStatus
)

// NewServiceManager creates a session manager (see ServiceConfig).
func NewServiceManager(cfg ServiceConfig) *ServiceManager { return service.NewManager(cfg) }

// NewServiceServer wraps a manager with the HTTP API.
func NewServiceServer(m *ServiceManager) *ServiceServer { return service.NewServer(m) }

// NewServiceClient returns a client for a factcheck-server at base, e.g.
// "http://127.0.0.1:8080".
func NewServiceClient(base string) *ServiceClient { return service.NewClient(base) }

// Durable session storage (ServiceConfig.Store).
type (
	// SnapshotStore persists served sessions: checkpointed at open,
	// WAL-appended on every answer, a fresh image periodically; see
	// internal/persist for the format and crash-safety contract.
	SnapshotStore = persist.Store
	// SnapshotRecord is the durable form of one stored session.
	SnapshotRecord = persist.Record
	// MemSnapshotStore keeps records in memory: sessions survive idle
	// eviction but not the process (the default store).
	MemSnapshotStore = persist.MemStore
	// FileSnapshotStore keeps records on disk: sessions survive SIGKILL
	// and restart with bit-identical selection traces.
	FileSnapshotStore = persist.FileStore
)

// NewMemSnapshotStore returns an empty in-memory snapshot store.
func NewMemSnapshotStore() *MemSnapshotStore { return persist.NewMemStore() }

// NewFileSnapshotStore returns a file-backed snapshot store rooted at
// dir (created if necessary), with per-write fsync enabled.
func NewFileSnapshotStore(dir string) (*FileSnapshotStore, error) { return persist.NewFileStore(dir) }

// Synthetic corpora and user simulation (§8).
type (
	// Corpus is a generated fact database with hidden ground truth.
	Corpus = synth.Corpus
	// CorpusProfile parameterises a corpus family.
	CorpusProfile = synth.Profile
	// Oracle answers with ground truth (§8.1 user simulation).
	Oracle = sim.Oracle
	// Erroneous answers incorrectly with probability P (§8.5).
	Erroneous = sim.Erroneous
	// Skipper skips claims with probability Pm (§8.5).
	Skipper = sim.Skipper
	// Worker models a human validator (§8.9).
	Worker = sim.Worker
	// Population is a set of workers with consensus aggregation.
	Population = sim.Population
)

// The three §8.1 corpus profiles at their published sizes.
var (
	Wikipedia = synth.Wikipedia
	Health    = synth.Health
	Snopes    = synth.Snopes
)

// GenerateCommunityCorpus builds a multi-community corpus: parts
// independent replicas of the profile at 1/parts size merged over
// disjoint id spaces, yielding at least parts connected components —
// the structure the component-sharded inference and the incremental
// dirty-component re-ranking path feed on.
func GenerateCommunityCorpus(p CorpusProfile, parts int, seed int64) *Corpus {
	return synth.GenerateCommunities(p, parts, seed)
}

// GenerateCorpus builds a corpus from a profile; identical (profile,
// seed) pairs yield identical corpora. It panics on a malformed profile;
// use GenerateCorpusChecked to handle invalid input gracefully.
func GenerateCorpus(p CorpusProfile, seed int64) *Corpus { return synth.Generate(p, seed) }

// GenerateCorpusChecked is GenerateCorpus with profile validation: an
// empty or malformed profile yields an error instead of a panic.
func GenerateCorpusChecked(p CorpusProfile, seed int64) (*Corpus, error) {
	return synth.GenerateChecked(p, seed)
}

// NewErroneous builds the §8.5 erroneous user simulator.
func NewErroneous(truth []bool, p float64, seed int64) *Erroneous {
	return sim.NewErroneous(truth, p, seed)
}

// NewSkipper wraps a user so it skips first-time claims with probability
// pm (§8.5).
func NewSkipper(inner User, pm float64, seed int64) *Skipper {
	return sim.NewSkipper(inner, pm, seed)
}
