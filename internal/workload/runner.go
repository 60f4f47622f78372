package workload

import (
	"container/heap"
	"context"
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

// event is one scheduled step of the virtual discrete-event simulation.
// Ties on the timestamp break by insertion sequence, which keeps the
// event order — and therefore the whole run — deterministic.
type event struct {
	at  float64
	seq int64
	fn  func(now float64)
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// virtualRun is the deterministic DES: one goroutine, a seeded event
// queue, operations executed inline at their virtual timestamps.
type virtualRun struct {
	sc     *Scenario
	target *service.Client
	rec    *recorder
	q      eventQueue
	seq    int64
	arr    *arrivals
	picker *fleetPicker
	users  []*fleetUser
	err    error
}

func (v *virtualRun) push(at float64, fn func(now float64)) {
	v.seq++
	heap.Push(&v.q, &event{at: at, seq: v.seq, fn: fn})
}

// spawn starts user number len(users) at virtual time now.
func (v *virtualRun) spawn(now float64) {
	if len(v.users) >= v.sc.maxUsers() {
		return
	}
	u, err := newFleetUser(v.sc, len(v.users), v.picker.pick())
	if err != nil {
		// A constructible scenario cannot fail here (Validate vets the
		// profile); treat it as fatal rather than skewing the fleet.
		v.err = fmt.Errorf("workload: building user %d: %w", len(v.users), err)
		return
	}
	v.users = append(v.users, u)
	think, err := u.open(v.target, v.rec)
	if err != nil {
		v.finished(now)
		return
	}
	v.push(now+think, v.wake(u))
}

// wake returns the event running one interaction round of u.
func (v *virtualRun) wake(u *fleetUser) func(now float64) {
	return func(now float64) {
		think, done := u.round(v.rec)
		if done {
			v.finished(now)
			return
		}
		v.push(now+think, v.wake(u))
	}
}

// finished closes the loop for closed-loop arrivals: a finishing user
// is immediately replaced, keeping the concurrency fixed.
func (v *virtualRun) finished(now float64) {
	if v.sc.Arrival.Kind == ArrivalClosed {
		v.push(now, v.spawn)
	}
}

// arrive processes one open-loop arrival and schedules the next.
func (v *virtualRun) arrive(now float64) {
	v.spawn(now)
	if next, ok := v.arr.next(now); ok {
		v.push(next, v.arrive)
	}
}

func runVirtual(sc *Scenario, target *service.Client) (*Result, error) {
	v := &virtualRun{
		sc:     sc,
		target: target,
		rec:    newRecorder(),
		arr:    newArrivals(sc),
		picker: newFleetPicker(sc),
	}
	heap.Init(&v.q)
	switch sc.Arrival.Kind {
	case ArrivalClosed:
		for i := 0; i < sc.Arrival.Concurrency; i++ {
			v.push(0, v.spawn)
		}
	default:
		if t, ok := v.arr.next(0); ok {
			v.push(t, v.arrive)
		}
	}
	for v.q.Len() > 0 {
		e := heap.Pop(&v.q).(*event)
		if e.at > sc.DurationSeconds {
			// The queue pops in time order: everything left lies past
			// the horizon too. Users mid-session count as active.
			break
		}
		e.fn(e.at)
		if v.err != nil {
			return nil, v.err
		}
	}
	return buildReport(sc, target, v.users, v.rec, sc.DurationSeconds, false, nil), nil
}

// runWall drives the scenario in real (optionally compressed) time:
// one goroutine per simulated user, arrivals on their own goroutine,
// sleeps scaled by WallTimeScale, everything stopping at the deadline.
func runWall(sc *Scenario, target *service.Client) (*Result, error) {
	rec := newRecorder()
	scale := sc.timeScale()
	start := time.Now()
	wallDur := time.Duration(sc.DurationSeconds / scale * float64(time.Second))
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(wallDur))
	defer cancel()

	var (
		mu       sync.Mutex
		users    []*fleetUser
		started  int
		buildErr error
	)
	picker := newFleetPicker(sc)

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
			case <-ctx.Done():
				return
			case <-tick.C:
				m, err := target.Metrics(false)
				if err != nil || m.Controller == nil {
					continue
				}
				if m.Controller.Mode != last {
					last = m.Controller.Mode
					rungs = append(rungs, RungSample{T: time.Since(start).Seconds(), Mode: m.Controller.Mode})
				}
			}
		}
	}()

	// sleep pauses for sec virtual seconds (compressed by scale);
	// false means the run's deadline arrived first.
	sleep := func(sec float64) bool {
		t := time.NewTimer(time.Duration(sec / scale * float64(time.Second)))
		defer t.Stop()
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
			return true
		}
	}

	// tryStart admits one more user, or returns nil when the cap or the
	// deadline has been reached.
	tryStart := func() *fleetUser {
		mu.Lock()
		if started >= sc.maxUsers() || ctx.Err() != nil || buildErr != nil {
			mu.Unlock()
			return nil
		}
		idx := started
		started++
		gi := picker.pick()
		mu.Unlock()
		u, err := newFleetUser(sc, idx, gi)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if buildErr == nil {
				buildErr = fmt.Errorf("workload: building user %d: %w", idx, err)
			}
			return nil
		}
		users = append(users, u)
		return u
	}

	var wg sync.WaitGroup
	runUser := func(u *fleetUser, onDone func()) {
		defer wg.Done()
		think, err := u.open(target, rec)
		if err == nil {
			for sleep(think) {
				var done bool
				think, done = u.round(rec)
				if done {
					break
				}
			}
		}
		if onDone != nil {
			onDone()
		}
	}

	if sc.Arrival.Kind == ArrivalClosed {
		// Fixed concurrency: each finishing user starts its successor.
		var replace func()
		replace = func() {
			if u := tryStart(); u != nil {
				wg.Add(1)
				go runUser(u, replace)
			}
		}
		for i := 0; i < sc.Arrival.Concurrency; i++ {
			replace()
		}
	} else {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arr := newArrivals(sc)
			t := 0.0
			for {
				next, ok := arr.next(t)
				if !ok || !sleep(next-t) {
					return
				}
				t = next
				u := tryStart()
				if u == nil {
					return
				}
				wg.Add(1)
				go runUser(u, nil)
			}
		}()
	}
	wg.Wait()
	cancel()
	<-rungsDone

	mu.Lock()
	defer mu.Unlock()
	if buildErr != nil {
		return nil, buildErr
	}
	elapsed := time.Since(start).Seconds()
	return buildReport(sc, target, users, rec, elapsed, true, rungs), nil
}
