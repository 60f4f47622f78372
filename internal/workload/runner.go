package workload

import (
	"fmt"
	"math"
	"sync"
	"time"

	"factcheck/internal/service"
	"factcheck/internal/stats"
)

// Run executes the scenario against the serving stack behind target
// under the scenario's clock mode and returns the report. The fleet's
// sessions live wherever the client points: a manager in this process
// (service.NewLocalClient — library runs, CI), a live factcheck-server
// or a router over HTTP. Every path is the same protocol and the same
// inference work; a socket adds only transport.
func Run(sc *Scenario, target *service.Client) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.mode() == ModeWall {
		return runWall(sc, target)
	}
	return runVirtual(sc, target)
}

// Random-stream identifiers off the scenario seed. User streams are
// 8*(idx+1)+slot (see newFleetUser); these huge ids cannot collide with
// any realistic fleet size.
const (
	streamArrivals  = 0xA1177A10_00000001
	streamFleetPick = 0xA1177A10_00000002
)

// arrivals samples an open-loop arrival process. next returns the
// arrival after time t, or ok = false when the process emits nothing
// more within the scenario horizon.
type arrivals struct {
	spec     ArrivalSpec
	duration float64
	rng      *stats.RNG
}

func newArrivals(sc *Scenario) *arrivals {
	return &arrivals{
		spec:     sc.Arrival,
		duration: sc.DurationSeconds,
		rng:      stats.NewRNG(stats.StreamSeed(uint64(sc.Seed), streamArrivals)),
	}
}

// exp draws an exponential inter-arrival gap at the given rate.
func (a *arrivals) exp(rate float64) float64 {
	return -math.Log1p(-a.rng.Float64()) / rate
}

// rate is the instantaneous arrival rate at time t (ramp profile).
func (a *arrivals) rate(t float64) float64 {
	ramp := a.spec.RampSeconds
	if ramp <= 0 {
		ramp = a.duration
	}
	if t >= ramp {
		return a.spec.EndRate
	}
	return a.spec.Rate + (a.spec.EndRate-a.spec.Rate)*t/ramp
}

func (a *arrivals) next(t float64) (float64, bool) {
	switch a.spec.Kind {
	case ArrivalPoisson:
		t += a.exp(a.spec.Rate)
		return t, t <= a.duration
	case ArrivalRamp:
		// Lewis–Shedler thinning: propose at the peak rate, accept with
		// probability rate(t)/peak — an exact inhomogeneous Poisson.
		peak := math.Max(a.spec.Rate, a.spec.EndRate)
		for {
			t += a.exp(peak)
			if t > a.duration {
				return 0, false
			}
			if a.rng.Float64()*peak <= a.rate(t) {
				return t, true
			}
		}
	}
	return 0, false // closed loop has no arrival stream
}

// scheduleArrivals schedules enter at every open-loop arrival inside
// the horizon, up to the user cap. All are scheduled at once, each at
// its own time, so none waits on the users before it or, on a loaded
// wall clock, on their callbacks starting late.
func scheduleArrivals(sc *Scenario, clk scheduler, enter func()) {
	arr := newArrivals(sc)
	t, ok := 0.0, true
	for i := 0; i < sc.maxUsers(); i++ {
		if t, ok = arr.next(t); !ok {
			return
		}
		clk.at(t, enter)
	}
}

// fleetPicker draws each arriving user's group proportionally to the
// fleet weights.
type fleetPicker struct {
	cum []float64
	rng *stats.RNG
}

func newFleetPicker(sc *Scenario) *fleetPicker {
	cum := make([]float64, len(sc.Fleet))
	total := 0.0
	for i, g := range sc.Fleet {
		w := g.Weight
		if w == 0 {
			w = 1
		}
		total += w
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[len(cum)-1] = 1
	return &fleetPicker{
		cum: cum,
		rng: stats.NewRNG(stats.StreamSeed(uint64(sc.Seed), streamFleetPick)),
	}
}

func (p *fleetPicker) pick() int {
	u := p.rng.Float64()
	for i, c := range p.cum {
		if u < c {
			return i
		}
	}
	return len(p.cum) - 1
}

// fleet is the one user lifecycle both clocks run: which user starts
// when, its rounds separated by think time, a closed-loop finisher's
// replacement and the open-loop arrival process. Every timing decision
// goes through clk, so a virtual and a wall run of one scenario differ
// only in the clock. Wall callbacks run concurrently; mu guards the
// admission state.
type fleet struct {
	sc     *Scenario
	target *service.Client
	rec    *recorder
	clk    scheduler

	mu      sync.Mutex
	picker  *fleetPicker
	started int
	users   []*fleetUser
	err     error
}

// newFleet schedules the scenario's first users on clk; the caller
// then runs the clock.
func newFleet(sc *Scenario, target *service.Client, clk scheduler) *fleet {
	f := &fleet{
		sc:     sc,
		target: target,
		rec:    newRecorder(),
		clk:    clk,
		picker: newFleetPicker(sc),
	}
	if sc.Arrival.Kind == ArrivalClosed {
		// Validate puts no upper bound on concurrency, and in wall mode
		// each event is a goroutine and a timer; a spawn past the user
		// cap returns at once, so the cap, which Validate does bound, is
		// all that is scheduled.
		for range min(sc.Arrival.Concurrency, sc.maxUsers()) {
			clk.at(0, f.spawn)
		}
		return f
	}
	scheduleArrivals(sc, clk, f.spawn)
	return f
}

// spawn builds the next user, unless the user cap is reached or a
// build has failed, opens its session and schedules its first round.
func (f *fleet) spawn() {
	f.mu.Lock()
	if f.started >= f.sc.maxUsers() || f.err != nil {
		f.mu.Unlock()
		return
	}
	idx, group := f.started, f.picker.pick()
	f.started++
	f.mu.Unlock()
	u, err := newFleetUser(f.sc, idx, group)
	f.mu.Lock()
	if err != nil {
		// A constructible scenario cannot fail here (Validate vets the
		// profile); treat it as fatal rather than skewing the fleet.
		if f.err == nil {
			f.err = fmt.Errorf("workload: building user %d: %w", idx, err)
		}
		f.mu.Unlock()
		return
	}
	f.users = append(f.users, u)
	f.mu.Unlock()
	think, err := u.open(f.target, f.rec)
	if err != nil {
		f.finished()
		return
	}
	f.clk.at(f.clk.now()+think, f.wake(u))
}

// wake returns the callback running one interaction round of u. The
// next round is scheduled from the clock's time after this one
// returns, so think time runs from the end of a round.
func (f *fleet) wake(u *fleetUser) func() {
	return func() {
		think, done := u.round(f.rec)
		if done {
			f.finished()
			return
		}
		f.clk.at(f.clk.now()+think, f.wake(u))
	}
}

// finished closes the loop for closed-loop arrivals: a finishing user
// is immediately replaced, keeping the concurrency fixed.
func (f *fleet) finished() {
	if f.sc.Arrival.Kind == ArrivalClosed {
		f.clk.at(f.clk.now(), f.spawn)
	}
}

func runVirtual(sc *Scenario, target *service.Client) (*Result, error) {
	clk := &virtualClock{}
	f := newFleet(sc, target, clk)
	// Users mid-session at the horizon count as active.
	clk.run(sc.DurationSeconds)
	if f.err != nil {
		return nil, f.err
	}
	return buildReport(sc, target, f.users, f.rec, sc.DurationSeconds, false, nil), nil
}

// runWall drives the scenario's lifecycle on a wall clock compressed
// by WallTimeScale, and adds what only a real clock has: the SLO-rung
// sampler and the measured report sections.
func runWall(sc *Scenario, target *service.Client) (*Result, error) {
	clk, cancel := newWallClock(sc.DurationSeconds, sc.timeScale())
	defer cancel()

	// Rung sampler: poll the target's metrics on a wall cadence and
	// record each SLO-controller rung transition, so the report shows
	// when the run pushed the server into degraded or shedding mode and
	// when it recovered. The slice is touched only by this goroutine
	// until its channel closes, which the final read waits on.
	var rungs []RungSample
	rungsDone := make(chan struct{})
	go func() {
		defer close(rungsDone)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		last := ""
		for {
			select {
			case <-clk.ctx.Done():
				return
			case <-tick.C:
				m, err := target.Metrics(false)
				if err != nil || m.Controller == nil {
					continue
				}
				if m.Controller.Mode != last {
					last = m.Controller.Mode
					rungs = append(rungs, RungSample{T: time.Since(clk.start).Seconds(), Mode: m.Controller.Mode})
				}
			}
		}
	}()

	f := newFleet(sc, target, clk)
	clk.pending.Wait()
	cancel()
	<-rungsDone
	if f.err != nil {
		return nil, f.err
	}
	elapsed := time.Since(clk.start).Seconds()
	return buildReport(sc, target, f.users, f.rec, elapsed, true, rungs), nil
}
