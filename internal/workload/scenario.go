// Package workload is the load-generation and telemetry subsystem: it
// simulates whole fleets of fact-checking users — composed from the §8
// user models of internal/sim — against either the in-process serving
// stack (service.Manager over core.Session) or a live factcheck-server
// over HTTP, and measures what the paper's micro-benchmarks cannot:
// end-to-end latency, throughput and quality-vs-effort under realistic
// arrival processes.
//
// A Scenario (declared in JSON, see examples/scenarios/) names an
// arrival process (open-loop Poisson, closed-loop fixed concurrency, or
// a ramp), a fleet of behavior profiles (oracle, erroneous, skipping,
// expert/crowd workers with log-normal think times, abandoning and
// bursty-revisit users), and the session configuration every simulated
// user opens. Runs execute under one of two clocks:
//
//   - virtual: a deterministic discrete-event simulation under a seeded
//     virtual clock. Two runs of the same scenario and seed produce
//     bit-identical JSON reports, which makes scenario runs CI-safe
//     regression artifacts. Operation latencies are still measured in
//     wall time for the human table, but are excluded from the report.
//   - wall: goroutine-per-user real time (optionally compressed by
//     WallTimeScale), for driving a real server and measuring real
//     latency percentiles.
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"factcheck/internal/service"
	"factcheck/internal/synth"
)

// Clock modes.
const (
	ModeVirtual = "virtual"
	ModeWall    = "wall"
)

// Arrival process kinds.
const (
	ArrivalPoisson = "poisson"
	ArrivalClosed  = "closed"
	ArrivalRamp    = "ramp"
)

// Behavior kinds; see Behavior.
const (
	KindOracle     = "oracle"
	KindErroneous  = "erroneous"
	KindSkipping   = "skipping"
	KindExpert     = "expert"
	KindCrowd      = "crowd"
	KindAbandoning = "abandoning"
	KindBursty     = "bursty"
	KindIngesting  = "ingesting"
)

// Scenario declares one workload: who arrives, when, and what they do.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Seed drives every random stream of the run: arrivals, fleet
	// composition, think times, behavior rolls, and (via Session.Seed +
	// user index) each user's corpus and session randomness.
	Seed int64 `json:"seed"`
	// Mode selects the clock: "virtual" (default) or "wall".
	Mode string `json:"mode,omitempty"`
	// DurationSeconds is the scenario horizon in virtual seconds. No
	// new arrivals are admitted past it, and in virtual mode no event
	// runs past it (users mid-session count as active-at-end).
	DurationSeconds float64 `json:"durationSeconds"`
	// MaxUsers hard-caps started users across the whole run (0 = 4096).
	MaxUsers int `json:"maxUsers,omitempty"`
	// AnswersPerUser caps the answers each user submits before it
	// completes its session (0 = drive the session to done). A fleet
	// group may override it.
	AnswersPerUser int `json:"answersPerUser,omitempty"`
	// Arrival is the arrival process.
	Arrival ArrivalSpec `json:"arrival"`
	// Session configures the session every user opens. Its Seed is the
	// base: user i opens with Seed + i, so users exercise distinct
	// corpora while staying reproducible.
	Session service.OpenRequest `json:"session"`
	// Fleet is the behavior mix; each arriving user is drawn from the
	// groups proportionally to Weight.
	Fleet []FleetGroup `json:"fleet"`
	// WallTimeScale compresses time in wall mode: a think or arrival
	// gap of v virtual seconds sleeps v/WallTimeScale wall seconds
	// (0 = 1, i.e. real time). Virtual mode ignores it.
	WallTimeScale float64 `json:"wallTimeScale,omitempty"`
	// SLO configures the SLO replay that TestGoldenSLOArc pins. The
	// load runners ignore it; declaring it here keeps the replay's
	// scenario loadable by plain loadtest runs under
	// DisallowUnknownFields.
	SLO *SLOSimSpec `json:"slo,omitempty"`
}

// ArrivalSpec declares how users arrive.
type ArrivalSpec struct {
	// Kind is "poisson" (open loop: exponential inter-arrivals at
	// Rate users/sec), "closed" (Concurrency users are always running;
	// a finishing user is replaced immediately), or "ramp" (open loop
	// with the rate rising linearly from Rate to EndRate over
	// RampSeconds, then holding — a flash crowd).
	Kind string `json:"kind"`
	// Rate is the arrival rate in users/sec (poisson; ramp start).
	Rate float64 `json:"rate,omitempty"`
	// EndRate is the ramp's final rate.
	EndRate float64 `json:"endRate,omitempty"`
	// RampSeconds is how long the ramp takes (0 = the whole duration).
	RampSeconds float64 `json:"rampSeconds,omitempty"`
	// Concurrency is the closed-loop fleet size.
	Concurrency int `json:"concurrency,omitempty"`
}

// FleetGroup is one slice of the fleet: a behavior with a mix weight.
type FleetGroup struct {
	// Name labels the group (defaults to the behavior kind).
	Name string `json:"name,omitempty"`
	// Weight is the group's share of arrivals (0 = 1).
	Weight float64 `json:"weight,omitempty"`
	// Behavior is how this group's users answer and pace themselves.
	Behavior Behavior `json:"behavior"`
	// Answers overrides Scenario.AnswersPerUser for this group.
	Answers int `json:"answers,omitempty"`
}

// Behavior composes the §8 user models of internal/sim into one
// profile. Unused knobs are ignored; zero values take the defaults
// noted per field.
type Behavior struct {
	// Kind is one of:
	//   oracle     — answers ground truth (§8.1)
	//   erroneous  — flips the truth with probability ErrorP (§8.5)
	//   skipping   — skips first-time claims with probability SkipP,
	//                answering via oracle or erroneous inner (§8.5)
	//   expert     — §8.9 expert worker: Reliability (default 0.97),
	//                slow log-normal think times
	//   crowd      — §8.9 crowd worker: Reliability (default 0.80),
	//                faster, noisier think times
	//   abandoning — rolls AbandonP before every interaction and walks
	//                away on success, leaving the session open (it is
	//                the server's idle-eviction problem now)
	//   bursty     — answers in bursts of BurstLen, then leaves for a
	//                log-normal gap around BurstGapSeconds and revisits
	//   ingesting  — a streaming fact checker: answers like erroneous,
	//                and after every IngestEvery answers posts a corpus
	//                delta (IngestScale of the corpus size) into its own
	//                live session, exercising the /v1 ingestion path
	Kind string `json:"kind"`
	// ErrorP is the per-answer mistake probability (erroneous, and the
	// inner user of skipping/abandoning/bursty; default 0).
	ErrorP float64 `json:"errorP,omitempty"`
	// SkipP is the first-ask skip probability (skipping; default 0.1).
	SkipP float64 `json:"skipP,omitempty"`
	// Reliability is the worker's probability of answering the truth
	// (expert/crowd; defaults 0.97 / 0.80).
	Reliability float64 `json:"reliability,omitempty"`
	// AbandonP is the per-interaction walk-away probability
	// (abandoning; default 0.25).
	AbandonP float64 `json:"abandonP,omitempty"`
	// BurstLen is the answers per burst (bursty; default 3).
	BurstLen int `json:"burstLen,omitempty"`
	// BurstGapSeconds is the median revisit gap (bursty; default 10×
	// the think median).
	BurstGapSeconds float64 `json:"burstGapSeconds,omitempty"`
	// ThinkMedianSeconds is the median per-interaction think time,
	// drawn log-normally via the sim.Worker response-time model
	// (default 15; experts 50, crowd 20).
	ThinkMedianSeconds float64 `json:"thinkMedianSeconds,omitempty"`
	// ThinkSigma is the log-normal shape of the think time
	// (default 0.5; experts 0.35).
	ThinkSigma float64 `json:"thinkSigma,omitempty"`
	// IngestEvery is the number of answers between corpus deltas
	// (ingesting; default 3).
	IngestEvery int `json:"ingestEvery,omitempty"`
	// IngestScale sizes each delta as a fraction of the session corpus
	// (ingesting; default 0.05).
	IngestScale float64 `json:"ingestScale,omitempty"`
}

// withDefaults resolves the per-kind default knobs.
func (b Behavior) withDefaults() Behavior {
	switch b.Kind {
	case KindExpert:
		if b.Reliability == 0 {
			b.Reliability = 0.97
		}
		if b.ThinkMedianSeconds == 0 {
			b.ThinkMedianSeconds = 50
		}
		if b.ThinkSigma == 0 {
			b.ThinkSigma = 0.35
		}
	case KindCrowd:
		if b.Reliability == 0 {
			b.Reliability = 0.80
		}
		if b.ThinkMedianSeconds == 0 {
			b.ThinkMedianSeconds = 20
		}
	case KindSkipping:
		if b.SkipP == 0 {
			b.SkipP = 0.1
		}
	case KindAbandoning:
		if b.AbandonP == 0 {
			b.AbandonP = 0.25
		}
	case KindBursty:
		if b.BurstLen <= 0 {
			b.BurstLen = 3
		}
	case KindIngesting:
		if b.IngestEvery <= 0 {
			b.IngestEvery = 3
		}
		if b.IngestScale == 0 {
			b.IngestScale = 0.05
		}
	}
	if b.ThinkMedianSeconds == 0 {
		b.ThinkMedianSeconds = 15
	}
	if b.ThinkSigma == 0 {
		b.ThinkSigma = 0.5
	}
	if b.Kind == KindBursty && b.BurstGapSeconds == 0 {
		b.BurstGapSeconds = 10 * b.ThinkMedianSeconds
	}
	return b
}

// validKinds guards against typos in hand-written scenario files.
var validKinds = map[string]bool{
	KindOracle: true, KindErroneous: true, KindSkipping: true,
	KindExpert: true, KindCrowd: true, KindAbandoning: true, KindBursty: true,
	KindIngesting: true,
}

// Validate checks the scenario for structural errors; it is called by
// Run but exposed so tools can lint scenario files.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("workload: scenario has no name")
	}
	switch sc.Mode {
	case "", ModeVirtual, ModeWall:
	default:
		return fmt.Errorf("workload: unknown mode %q", sc.Mode)
	}
	if sc.DurationSeconds <= 0 {
		return fmt.Errorf("workload: durationSeconds must be positive")
	}
	if sc.MaxUsers < 0 {
		return fmt.Errorf("workload: negative maxUsers")
	}
	if sc.AnswersPerUser < 0 {
		return fmt.Errorf("workload: scenario has a negative answer cap")
	}
	if sc.WallTimeScale < 0 {
		return fmt.Errorf("workload: negative wallTimeScale")
	}
	switch sc.Arrival.Kind {
	case ArrivalPoisson:
		if sc.Arrival.Rate <= 0 {
			return fmt.Errorf("workload: poisson arrival needs rate > 0")
		}
	case ArrivalRamp:
		if sc.Arrival.Rate < 0 || sc.Arrival.EndRate <= 0 {
			return fmt.Errorf("workload: ramp arrival needs rate >= 0 and endRate > 0")
		}
		if sc.Arrival.RampSeconds < 0 {
			return fmt.Errorf("workload: negative rampSeconds")
		}
	case ArrivalClosed:
		if sc.Arrival.Concurrency <= 0 {
			return fmt.Errorf("workload: closed arrival needs concurrency > 0")
		}
	default:
		return fmt.Errorf("workload: unknown arrival kind %q", sc.Arrival.Kind)
	}
	if len(sc.Fleet) == 0 {
		return fmt.Errorf("workload: scenario has no fleet groups")
	}
	for i, g := range sc.Fleet {
		if !validKinds[g.Behavior.Kind] {
			return fmt.Errorf("workload: fleet[%d] has unknown behavior kind %q", i, g.Behavior.Kind)
		}
		if g.Weight < 0 || g.Answers < 0 {
			return fmt.Errorf("workload: fleet[%d] has a negative weight or answer cap", i)
		}
		b := g.Behavior
		if b.ErrorP < 0 || b.ErrorP > 1 || b.SkipP < 0 || b.SkipP > 1 ||
			b.AbandonP < 0 || b.AbandonP > 1 || b.Reliability < 0 || b.Reliability > 1 {
			return fmt.Errorf("workload: fleet[%d] has a probability outside [0, 1]", i)
		}
		if b.ThinkMedianSeconds < 0 || b.ThinkSigma < 0 || b.BurstGapSeconds < 0 || b.BurstLen < 0 {
			return fmt.Errorf("workload: fleet[%d] has a negative timing knob", i)
		}
		if b.IngestEvery < 0 || b.IngestScale < 0 || b.IngestScale > 1 {
			return fmt.Errorf("workload: fleet[%d] has an ingestion knob outside its range", i)
		}
	}
	if _, err := synth.ByName(sc.Session.Profile); err != nil {
		return fmt.Errorf("workload: session profile: %w", err)
	}
	if sc.SLO != nil {
		if err := sc.SLO.validate(); err != nil {
			return err
		}
	}
	return nil
}

// maxUsers resolves the started-users cap.
func (sc *Scenario) maxUsers() int {
	if sc.MaxUsers > 0 {
		return sc.MaxUsers
	}
	return 4096
}

// mode resolves the clock mode.
func (sc *Scenario) mode() string {
	if sc.Mode == "" {
		return ModeVirtual
	}
	return sc.Mode
}

// timeScale resolves the wall-mode compression factor.
func (sc *Scenario) timeScale() float64 {
	if sc.WallTimeScale <= 0 {
		return 1
	}
	return sc.WallTimeScale
}

// answerCap resolves a group's per-user answer cap (0 = unlimited).
func (sc *Scenario) answerCap(g *FleetGroup) int {
	if g.Answers > 0 {
		return g.Answers
	}
	return sc.AnswersPerUser
}

// LoadScenario reads and validates a scenario file. Unknown fields are
// rejected so a typoed knob fails loudly instead of silently running
// the default.
func LoadScenario(path string) (*Scenario, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return ParseScenario(raw)
}

// ParseScenario decodes and validates scenario JSON.
func ParseScenario(raw []byte) (*Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("workload: scenario JSON: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}
