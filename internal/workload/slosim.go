package workload

import (
	"fmt"
	"math"
	"sort"

	"factcheck/internal/service"
	"factcheck/internal/stats"
)

// This file is the scenario-replay SLO simulation behind `make
// slo-gate`: a deterministic discrete-event queue model that drives the
// REAL service.SLOController — the same state machine production
// serves with, evaluated under virtual time instead of wall seconds —
// through a scenario's arrival process. The replay reproduces the
// overload arc (breach → degrade → shed → admitted load meets the SLO)
// bit-identically run over run, so the SLO curve can be pinned as a CI
// baseline the way bench-gate pins ns/op.

// streamSLOSim seeds the replay's random streams apart from the main
// runner's.
const streamSLOSim = 0xA1177A10_00000003

// SLOSimSpec is a scenario's `slo` section: the queue-model parameters
// of the replay. The controller configuration is the service's own
// SLOConfig, so thresholds exercised in CI are exactly the thresholds
// a server runs.
type SLOSimSpec struct {
	// Controller is the overload controller under test; its P99 is the
	// SLO the gate enforces.
	Controller service.SLOConfig `json:"controller"`
	// FullAnswerSeconds is the lane-held service time of a full
	// what-if-scoring answer.
	FullAnswerSeconds float64 `json:"fullAnswerSeconds"`
	// DegradedAnswerSeconds is the service time of a degraded
	// (uncertainty-ranked) answer.
	DegradedAnswerSeconds float64 `json:"degradedAnswerSeconds"`
	// Lanes is the worker-lane budget (default 1).
	Lanes int `json:"lanes,omitempty"`
	// ThinkSeconds is each user's mean think time between answers,
	// exponentially drawn (0 = 1s).
	ThinkSeconds float64 `json:"thinkSeconds,omitempty"`
	// RetrySeconds is how long a shed user backs off before retrying —
	// the Retry-After contract (0 = 1s).
	RetrySeconds float64 `json:"retrySeconds,omitempty"`
	// CurveSeconds is the SLO-curve sampling cadence (0 = 1s).
	CurveSeconds float64 `json:"curveSeconds,omitempty"`
}

func (s *SLOSimSpec) validate() error {
	if !s.Controller.Enabled() {
		return fmt.Errorf("workload: slo.controller.p99 must be positive")
	}
	if s.FullAnswerSeconds <= 0 || s.DegradedAnswerSeconds <= 0 {
		return fmt.Errorf("workload: slo needs positive fullAnswerSeconds and degradedAnswerSeconds")
	}
	if s.DegradedAnswerSeconds > s.FullAnswerSeconds {
		return fmt.Errorf("workload: degraded answers must not cost more than full answers")
	}
	if s.Lanes < 0 || s.ThinkSeconds < 0 || s.RetrySeconds < 0 || s.CurveSeconds < 0 {
		return fmt.Errorf("workload: slo has a negative knob")
	}
	return nil
}

func (s *SLOSimSpec) lanes() int {
	if s.Lanes > 0 {
		return s.Lanes
	}
	return 1
}

func (s *SLOSimSpec) think() float64 {
	if s.ThinkSeconds > 0 {
		return s.ThinkSeconds
	}
	return 1
}

func (s *SLOSimSpec) retry() float64 {
	if s.RetrySeconds > 0 {
		return s.RetrySeconds
	}
	return 1
}

func (s *SLOSimSpec) curveEvery() float64 {
	if s.CurveSeconds > 0 {
		return s.CurveSeconds
	}
	return 1
}

// SLOCurvePoint is one sample of the replayed overload arc.
type SLOCurvePoint struct {
	// T is the virtual time of the sample.
	T float64 `json:"t"`
	// Mode is the controller rung at T.
	Mode string `json:"mode"`
	// WindowP99 is the controller's windowed p99 at T.
	WindowP99 float64 `json:"windowP99"`
	// Served/Shed/Degraded are cumulative counters at T.
	Served   int64 `json:"served"`
	Shed     int64 `json:"shed"`
	Degraded int64 `json:"degraded"`
}

// SLOReport is the replay's result: the controller-on arc, the
// controller-off counterfactual, and the summary numbers the gate
// compares against its committed baseline.
type SLOReport struct {
	Scenario   string  `json:"scenario"`
	Seed       int64   `json:"seed"`
	SLOSeconds float64 `json:"sloSeconds"`

	// Arrivals counts users who entered; Served/Shed/DegradedAnswers
	// and Breaches are the controller-on run's totals.
	Arrivals        int64 `json:"arrivals"`
	Served          int64 `json:"served"`
	Shed            int64 `json:"shed"`
	DegradedAnswers int64 `json:"degradedAnswers"`
	Breaches        int64 `json:"breaches"`

	// FirstDegradeT/FirstShedT are when the ladder first reached each
	// rung (0 = never).
	FirstDegradeT float64 `json:"firstDegradeT"`
	FirstShedT    float64 `json:"firstShedT"`

	// OverallP99 is the controller-on p99 over every served answer;
	// SteadyP99 restricts to answers that ARRIVED after the shed
	// transition — requests admitted under admission control, excluding
	// the backlog that queued up before the controller engaged. This is
	// the "admitted load meets the SLO" number.
	OverallP99 float64 `json:"overallP99"`
	SteadyP99  float64 `json:"steadyP99"`

	// ControllerOffP99 is the counterfactual: the same arrivals served
	// with the controller disabled (always full scoring, never shed).
	ControllerOffP99 float64 `json:"controllerOffP99"`

	// Curve is the controller-on arc sampled every CurveSeconds.
	Curve []SLOCurvePoint `json:"curve"`
}

// sloRequest is one in-flight answer request of the queue model.
type sloRequest struct {
	user    *sloUser
	arrived float64
}

// sloUser is one closed-loop client: think, answer, honor Retry-After
// on a shed, leave after its answer budget.
type sloUser struct {
	remaining int
}

// sloSim is the queue model's state for one pass.
type sloSim struct {
	spec *SLOSimSpec
	ctrl *service.SLOController // nil = controller-off pass
	rng  *stats.RNG
	clk  virtualClock

	fifo  []*sloRequest
	free  int
	waits int64

	arrivalsN int64
	served    int64
	shed      int64
	degraded  int64
	latencies []float64
	lateAfter []float64 // latencies of requests admitted at/after firstShed
	firstDeg  float64
	firstShed float64
	curve     []SLOCurvePoint
}

// modeAt asks the controller for its rung, driving evaluation exactly
// the way Manager.withSession does; the controller-off pass always
// reads normal.
func (s *sloSim) modeAt(now float64) service.SLOMode {
	if s.ctrl == nil {
		return service.ModeNormal
	}
	m := s.ctrl.ModeAt(now, s.waits)
	if m >= service.ModeDegraded && s.firstDeg == 0 {
		s.firstDeg = now
	}
	if m == service.ModeShedding && s.firstShed == 0 {
		s.firstShed = now
	}
	return m
}

// exp draws an exponential gap with the given mean.
func (s *sloSim) exp(mean float64) float64 {
	return -math.Log1p(-s.rng.Float64()) * mean
}

// arrive handles one answer request, mirroring Manager.withSession:
// while shedding, a request that cannot take a lane immediately is
// refused (the user backs off RetrySeconds and retries); otherwise it
// takes a free lane or queues, counting lane contention exactly like
// Budget.Acquire/TryAcquire.
func (s *sloSim) arrive(now float64, req *sloRequest) {
	req.arrived = now
	if s.modeAt(now) == service.ModeShedding && s.free == 0 {
		s.waits++
		s.shed++
		if s.ctrl != nil {
			s.ctrl.RecordShed()
		}
		retry := *req
		s.clk.at(now+s.spec.retry(), func() { s.arrive(s.clk.now(), &retry) })
		return
	}
	if s.free > 0 {
		s.free--
		s.start(now, req)
		return
	}
	s.waits++
	s.fifo = append(s.fifo, req)
}

// start begins service for req: the ranking mode — and so the service
// time — is stamped at execution time, after any queue wait, matching
// the server's degrade-mid-backlog behavior.
func (s *sloSim) start(now float64, req *sloRequest) {
	deg := s.modeAt(now) != service.ModeNormal
	cost := s.spec.FullAnswerSeconds
	if deg {
		cost = s.spec.DegradedAnswerSeconds
	}
	s.clk.at(now+cost, func() { s.complete(s.clk.now(), req, deg) })
}

// complete finishes req's service and feeds the controller.
func (s *sloSim) complete(now float64, req *sloRequest, deg bool) {
	lat := now - req.arrived
	s.served++
	s.latencies = append(s.latencies, lat)
	if s.firstShed > 0 && req.arrived >= s.firstShed {
		s.lateAfter = append(s.lateAfter, lat)
	}
	if deg {
		s.degraded++
		if s.ctrl != nil {
			s.ctrl.RecordDegradedAnswer()
		}
	}
	if s.ctrl != nil {
		s.ctrl.ObserveAnswer(now, lat, s.waits)
	}
	// Hand the lane to the queue head, or free it.
	if len(s.fifo) > 0 {
		next := s.fifo[0]
		s.fifo = s.fifo[1:]
		s.start(now, next)
	} else {
		s.free++
	}
	// The user thinks, then submits its next answer.
	req.user.remaining--
	if req.user.remaining > 0 {
		s.clk.at(now+s.exp(s.spec.think()), func() {
			s.arrive(s.clk.now(), &sloRequest{user: req.user})
		})
	}
}

// sample records one SLO-curve point.
func (s *sloSim) sample(now float64) {
	pt := SLOCurvePoint{
		T: now, Mode: service.ModeNormal.String(),
		Served: s.served, Shed: s.shed, Degraded: s.degraded,
	}
	if s.ctrl != nil {
		st := s.ctrl.Status(now, s.waits)
		pt.Mode = st.Mode
		pt.WindowP99 = st.WindowP99
	}
	s.curve = append(s.curve, pt)
}

// p99 is the nearest-rank p99 of a latency sample (0 when empty).
func p99(lats []float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	s := append([]float64(nil), lats...)
	sort.Float64s(s)
	rank := (99*len(s) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// runSLOPass replays the scenario's arrivals through the queue model
// once. withController selects the controller-on arc or the
// counterfactual.
func runSLOPass(sc *Scenario, withController bool, sampleCurve bool) *sloSim {
	spec := sc.SLO
	s := &sloSim{
		spec: spec,
		rng:  stats.NewRNG(stats.StreamSeed(uint64(sc.Seed), streamSLOSim)),
		free: spec.lanes(),
	}
	if withController {
		s.ctrl = service.NewSLOController(spec.Controller)
	}

	// Users enter per the scenario's arrival process, each a closed
	// loop of answerCap answers (default: the per-user scenario cap, or
	// 8 when the scenario leaves it open — a queue model has no session
	// to run to completion).
	answers := sc.AnswersPerUser
	if answers <= 0 {
		answers = 8
	}
	enter := func() {
		s.arrivalsN++
		s.arrive(s.clk.now(), &sloRequest{user: &sloUser{remaining: answers}})
	}
	if sc.Arrival.Kind == ArrivalClosed {
		// A closed fleet is Concurrency users all present at t=0, with
		// no replacement.
		for i := 0; i < sc.Arrival.Concurrency && i < sc.maxUsers(); i++ {
			enter()
		}
	} else {
		scheduleArrivals(sc, &s.clk, enter)
	}

	// Sample the curve on a fixed cadence across the horizon plus a
	// drain margin, then run events to exhaustion under a hard cap so a
	// shed/retry loop cannot spin forever.
	tMax := 2*sc.DurationSeconds + 30
	if sampleCurve {
		for t := 0.0; t <= tMax; t += spec.curveEvery() {
			s.clk.at(t, func() { s.sample(s.clk.now()) })
		}
	}
	s.clk.run(tMax)
	return s
}

// RunSLOSim replays the scenario through the SLO queue model:
// controller-on for the arc and gate numbers, controller-off for the
// counterfactual p99. Deterministic in (scenario, seed).
func RunSLOSim(sc *Scenario) (*SLOReport, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.SLO == nil {
		return nil, fmt.Errorf("workload: scenario %q has no slo section", sc.Name)
	}
	on := runSLOPass(sc, true, true)
	off := runSLOPass(sc, false, false)
	return &SLOReport{
		Scenario:         sc.Name,
		Seed:             sc.Seed,
		SLOSeconds:       sc.SLO.Controller.P99,
		Arrivals:         on.arrivalsN,
		Served:           on.served,
		Shed:             on.shed,
		DegradedAnswers:  on.degraded,
		Breaches:         breachCount(on),
		FirstDegradeT:    on.firstDeg,
		FirstShedT:       on.firstShed,
		OverallP99:       p99(on.latencies),
		SteadyP99:        p99(on.lateAfter),
		ControllerOffP99: p99(off.latencies),
		Curve:            on.curve,
	}, nil
}

func breachCount(s *sloSim) int64 {
	if s.ctrl == nil {
		return 0
	}
	return s.ctrl.Status(s.clk.now(), s.waits).Breaches
}
