package workload

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// scheduler is the clock a run is written against: the fleet lifecycle
// and the SLO replay ask it only for the time and to run a callback
// later, so the same decisions run under virtual and wall time.
type scheduler interface {
	// now is the current run time in scenario seconds.
	now() float64
	// at runs fn at run time t.
	at(t float64, fn func())
}

// event is one scheduled callback of the virtual clock. Ties on the
// timestamp break by insertion sequence, which keeps the event order —
// and therefore the whole run — deterministic.
type event struct {
	at  float64
	seq int64
	fn  func()
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

// virtualClock is the deterministic discrete-event clock: one
// goroutine, a seeded event queue, callbacks executed inline at their
// virtual timestamps. Time stands still while a callback runs.
type virtualClock struct {
	q   eventQueue
	seq int64
	t   float64
}

func (c *virtualClock) now() float64 { return c.t }

func (c *virtualClock) at(t float64, fn func()) {
	c.seq++
	heap.Push(&c.q, &event{at: t, seq: c.seq, fn: fn})
}

// run executes events in time order until none is left or the next
// lies past horizon; the queue pops in time order, so everything left
// then lies past the horizon too.
func (c *virtualClock) run(horizon float64) {
	for c.q.Len() > 0 {
		e := heap.Pop(&c.q).(*event)
		if e.at > horizon {
			return
		}
		c.t = e.at
		e.fn()
	}
}

// wallClock runs each callback on its own goroutine at start + t /
// scale of real time. A callback due past the horizon, or still
// pending when the deadline (the horizon in real time) arrives, is
// dropped. The run is over once pending drains.
type wallClock struct {
	start   time.Time
	scale   float64
	horizon float64
	ctx     context.Context
	pending sync.WaitGroup
}

// newWallClock starts a wall clock now; ctx ends at its deadline, and
// cancel releases it.
func newWallClock(horizon, scale float64) (c *wallClock, cancel context.CancelFunc) {
	c = &wallClock{start: time.Now(), scale: scale, horizon: horizon}
	c.ctx, cancel = context.WithDeadline(context.Background(), c.real(horizon))
	return c, cancel
}

// real is the wall instant of run time t.
func (c *wallClock) real(t float64) time.Time {
	return c.start.Add(time.Duration(t / c.scale * float64(time.Second)))
}

func (c *wallClock) now() float64 { return time.Since(c.start).Seconds() * c.scale }

func (c *wallClock) at(t float64, fn func()) {
	if t > c.horizon || c.ctx.Err() != nil {
		return
	}
	c.pending.Add(1)
	go func() {
		defer c.pending.Done()
		timer := time.NewTimer(time.Until(c.real(t)))
		defer timer.Stop()
		select {
		case <-c.ctx.Done():
		case <-timer.C:
			fn()
		}
	}()
}
