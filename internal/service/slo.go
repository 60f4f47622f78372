package service

import (
	"sync"

	"factcheck/internal/stats"
)

// SLOConfig tunes the overload controller. The controller watches the
// windowed answer-latency p99 against the target and worker-lane
// saturation, and walks a two-stage degradation ladder:
//
//	normal ──p99 breached DegradeAfter evals──▶ degraded
//	degraded ──lanes saturated ShedAfter evals──▶ shedding
//	shedding ──calm RecoverAfter evals──▶ degraded ──healthy──▶ normal
//
// Degraded mode swaps the per-request what-if scoring for the cheap
// precomputed uncertainty ranking (core.Session.SetDegraded); shedding
// additionally rejects new sessions and sheds answer load that cannot
// get a worker lane immediately, with 429 + Retry-After. A zero P99
// disables the controller entirely.
type SLOConfig struct {
	// P99 is the answer-latency SLO in seconds; <= 0 disables the
	// controller.
	P99 float64 `json:"p99,omitempty"`
	// WindowSeconds is the rolling latency window the p99 is read over
	// (default 10s).
	WindowSeconds float64 `json:"windowSeconds,omitempty"`
	// Slots divides the window for aging-out granularity (default 5);
	// one slot width is also the evaluation cadence.
	Slots int `json:"slots,omitempty"`
	// MinSamples is the fewest observations a window needs before its
	// p99 counts as a signal (default 8); thinner windows read as "no
	// signal", which is never a breach.
	MinSamples int `json:"minSamples,omitempty"`
	// DegradeAfter is the consecutive breached evaluations before
	// normal → degraded (default 2).
	DegradeAfter int `json:"degradeAfter,omitempty"`
	// ShedAfter is the consecutive saturated evaluations (fresh
	// worker-lane contention in every evaluation window) while degraded
	// before degraded → shedding (default 3).
	ShedAfter int `json:"shedAfter,omitempty"`
	// RecoverAfter is the consecutive healthy evaluations before
	// stepping back down one rung (default 3).
	RecoverAfter int `json:"recoverAfter,omitempty"`
}

// Enabled reports whether the configuration turns the controller on.
func (c SLOConfig) Enabled() bool { return c.P99 > 0 }

func (c SLOConfig) withDefaults() SLOConfig {
	if c.WindowSeconds <= 0 {
		c.WindowSeconds = 10
	}
	if c.Slots < 1 {
		c.Slots = 5
	}
	if c.MinSamples < 1 {
		c.MinSamples = 8
	}
	if c.DegradeAfter < 1 {
		c.DegradeAfter = 2
	}
	if c.ShedAfter < 1 {
		c.ShedAfter = 3
	}
	if c.RecoverAfter < 1 {
		c.RecoverAfter = 3
	}
	return c
}

// SLOMode is a rung of the degradation ladder.
type SLOMode int

const (
	// ModeNormal serves the configured strategy with no admission limits.
	ModeNormal SLOMode = iota
	// ModeDegraded serves the cheap uncertainty ranking instead of
	// what-if scoring.
	ModeDegraded
	// ModeShedding additionally rejects new sessions and answer load
	// that cannot get a lane immediately (429 + Retry-After).
	ModeShedding
)

func (m SLOMode) String() string {
	switch m {
	case ModeDegraded:
		return "degraded"
	case ModeShedding:
		return "shedding"
	default:
		return "normal"
	}
}

// ParseSLOMode maps a mode string (as serialised in Health and
// ControllerStatus) back to its rung; unknown strings read as normal.
func ParseSLOMode(s string) SLOMode {
	switch s {
	case "degraded":
		return ModeDegraded
	case "shedding":
		return ModeShedding
	default:
		return ModeNormal
	}
}

// ControllerStatus is the controller's /metrics payload.
type ControllerStatus struct {
	// Mode is the current ladder rung: "normal", "degraded", "shedding".
	Mode string `json:"mode"`
	// SLOSeconds echoes the configured p99 target.
	SLOSeconds float64 `json:"sloSeconds"`
	// WindowP99 is the current windowed p99 (0 when the window carries
	// no signal; see WindowCount to distinguish).
	WindowP99 float64 `json:"windowP99"`
	// WindowCount is the number of answers inside the current window.
	WindowCount int64 `json:"windowCount"`
	// Breaches counts evaluations whose windowed p99 exceeded the SLO.
	Breaches int64 `json:"breaches"`
	// Sheds counts requests rejected with 429 (opens refused while
	// shedding, plus answer/next load shed for want of a free lane).
	Sheds int64 `json:"sheds"`
	// DegradedAnswers counts answers served from a degraded-mode ranking.
	DegradedAnswers int64 `json:"degradedAnswers"`
}

// Merge folds another backend's controller status into this one — the
// fleet aggregation the router serves: counters sum, the mode is the
// worst rung any member reports, and the window view takes the worst
// (highest) p99 so the fleet number is the pessimistic bound.
func (cs *ControllerStatus) Merge(o ControllerStatus) {
	if ParseSLOMode(o.Mode) > ParseSLOMode(cs.Mode) {
		cs.Mode = o.Mode
	}
	if o.SLOSeconds > 0 && (cs.SLOSeconds == 0 || o.SLOSeconds < cs.SLOSeconds) {
		cs.SLOSeconds = o.SLOSeconds
	}
	if o.WindowP99 > cs.WindowP99 {
		cs.WindowP99 = o.WindowP99
	}
	cs.WindowCount += o.WindowCount
	cs.Breaches += o.Breaches
	cs.Sheds += o.Sheds
	cs.DegradedAnswers += o.DegradedAnswers
}

// SLOController is the overload state machine. It is deliberately a
// pure function of explicitly passed timestamps (float64 seconds on any
// monotone clock) and an externally maintained contention counter: the
// Manager drives it with wall seconds since boot and Budget.Waits, and
// the workload package's SLO simulation drives the *same* controller
// with virtual DES time and a simulated queue counter — which is what
// makes the CI slo-gate replay deterministic while exercising the exact
// thresholds production runs. Safe for concurrent use.
//
// Saturation is judged per evaluation window by diffing the monotone
// waits counter: an evaluation is "saturated" when anyone queued behind
// (or was refused) the worker budget since the previous evaluation.
// Sampling occupancy at the evaluation instant instead would be
// systematically lucky — on a busy box the evaluating goroutine tends
// to get scheduled exactly when lane-holding work yields.
type SLOController struct {
	mu  sync.Mutex
	cfg SLOConfig
	win *stats.WindowedHist

	mode      SLOMode
	lastEval  float64
	evalEver  float64 // evaluation cadence (one slot width)
	started   bool
	lastWaits int64 // contention counter at the previous evaluation

	badStreak  int // consecutive breached evaluations
	goodStreak int // consecutive non-breached evaluations
	satStreak  int // consecutive saturated evaluations
	calmStreak int // consecutive non-saturated evaluations

	breaches        int64
	sheds           int64
	degradedAnswers int64
}

// NewSLOController builds a controller; nil when cfg disables it, so
// callers can gate on the pointer.
func NewSLOController(cfg SLOConfig) *SLOController {
	if !cfg.Enabled() {
		return nil
	}
	cfg = cfg.withDefaults()
	return &SLOController{
		cfg:      cfg,
		win:      stats.NewWindowedHist(cfg.WindowSeconds, cfg.Slots),
		evalEver: cfg.WindowSeconds / float64(cfg.Slots),
	}
}

// evalLocked advances the state machine when an evaluation cadence has
// elapsed; c.mu must be held. Evaluation is lazy — driven by whatever
// observation or mode query arrives next — so the controller needs no
// goroutine and works identically under virtual time.
func (c *SLOController) evalLocked(now float64, waits int64) {
	if c.started && now < c.lastEval+c.evalEver {
		return
	}
	c.started = true
	c.lastEval = now
	saturated := waits > c.lastWaits
	c.lastWaits = waits

	p99, ok := c.win.Quantile(now, 0.99)
	if ok && c.win.Count(now) < int64(c.cfg.MinSamples) {
		ok = false // too thin to act on
	}
	breach := ok && p99 > c.cfg.P99
	if breach {
		c.breaches++
		c.badStreak++
		c.goodStreak = 0
	} else {
		c.badStreak = 0
		c.goodStreak++
	}
	if saturated {
		c.satStreak++
		c.calmStreak = 0
	} else {
		c.satStreak = 0
		c.calmStreak++
	}

	switch c.mode {
	case ModeNormal:
		if c.badStreak >= c.cfg.DegradeAfter {
			c.mode = ModeDegraded
			c.resetStreaksLocked()
		}
	case ModeDegraded:
		if c.satStreak >= c.cfg.ShedAfter {
			// Saturation persisting after degradation already removed the
			// what-if cost means demand exceeds even degraded capacity:
			// start shedding.
			c.mode = ModeShedding
			c.resetStreaksLocked()
		} else if c.goodStreak >= c.cfg.RecoverAfter && c.calmStreak >= c.cfg.RecoverAfter {
			c.mode = ModeNormal
			c.resetStreaksLocked()
		}
	case ModeShedding:
		if c.calmStreak >= c.cfg.RecoverAfter && c.goodStreak >= c.cfg.RecoverAfter {
			// Step down one rung only: re-admitted load must prove itself
			// under degraded serving before full scoring returns.
			c.mode = ModeDegraded
			c.resetStreaksLocked()
		}
	}
}

// resetStreaksLocked clears the evidence counters on a transition, so
// each rung demands fresh consecutive evidence before the next move.
func (c *SLOController) resetStreaksLocked() {
	c.badStreak, c.goodStreak, c.satStreak, c.calmStreak = 0, 0, 0, 0
}

// ObserveAnswer records one served answer's latency (seconds) at time
// now and re-evaluates the ladder. waits is the cumulative worker-lane
// contention counter (Budget.Waits or a simulated equivalent).
func (c *SLOController) ObserveAnswer(now, seconds float64, waits int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.win.Add(now, seconds)
	c.evalLocked(now, waits)
}

// ModeAt re-evaluates (at most once per cadence) and returns the
// current rung. Queries drive evaluation too, so the controller recovers
// even when shedding has silenced the answer stream.
func (c *SLOController) ModeAt(now float64, waits int64) SLOMode {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evalLocked(now, waits)
	return c.mode
}

// RecordShed counts one request rejected by admission control.
func (c *SLOController) RecordShed() {
	c.mu.Lock()
	c.sheds++
	c.mu.Unlock()
}

// RecordDegradedAnswer counts one answer served from a degraded-mode
// ranking.
func (c *SLOController) RecordDegradedAnswer() {
	c.mu.Lock()
	c.degradedAnswers++
	c.mu.Unlock()
}

// Status assembles the /metrics payload (and re-evaluates, so a scrape
// alone keeps the ladder moving on an otherwise idle server).
func (c *SLOController) Status(now float64, waits int64) ControllerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evalLocked(now, waits)
	st := ControllerStatus{
		Mode:            c.mode.String(),
		SLOSeconds:      c.cfg.P99,
		Breaches:        c.breaches,
		Sheds:           c.sheds,
		DegradedAnswers: c.degradedAnswers,
	}
	st.WindowCount = c.win.Count(now)
	if p99, ok := c.win.Quantile(now, 0.99); ok {
		st.WindowP99 = p99
	}
	return st
}
