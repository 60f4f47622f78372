package workload

import (
	"fmt"

	"factcheck/internal/service"
)

// SLOSimSpec is a scenario's `slo` section: the parameters of the
// overload replay, a deterministic discrete-event queue model that
// drives the real service.SLOController — the state machine a server
// runs, evaluated under virtual time instead of wall seconds — through
// the scenario's arrival process. The model and the golden replay of
// examples/scenarios/slo-gate.json (TestGoldenSLOArc) live in
// slosim_test.go; the load runners ignore the section, so Scenario only
// decodes and validates it here. The controller configuration is the
// service's own SLOConfig, so the thresholds the replay pins are exactly
// the thresholds a server runs.
type SLOSimSpec struct {
	// Controller is the overload controller under test; its P99 is the
	// SLO the replay holds the admitted load to.
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

// validate refuses a spec the replay cannot run as written. A negative
// controller knob is refused too: SLOConfig's defaults would otherwise
// replace it silently.
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
	c := s.Controller
	if s.Lanes < 0 || s.ThinkSeconds < 0 || s.RetrySeconds < 0 || s.CurveSeconds < 0 ||
		c.WindowSeconds < 0 || c.Slots < 0 || c.MinSamples < 0 ||
		c.DegradeAfter < 0 || c.ShedAfter < 0 || c.RecoverAfter < 0 {
		return fmt.Errorf("workload: slo has a negative knob")
	}
	return nil
}
