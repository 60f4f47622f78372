package service

import (
	"runtime"
	"sync"
)

// Budget is the shared worker-lane budget that lets N concurrent
// sessions multiplex onto one bounded set of scoring/inference
// goroutines instead of each session assuming it owns the machine.
// Lanes are elastic: a request holds exactly one base lane for its whole
// duration (Acquire/TryAcquire), and each parallel section inside it —
// the sharded E-step, a what-if scoring round — borrows whatever else is
// free when it starts and returns it when it ends (Borrow/Return; Budget
// is the gibbs.Lender every served session is built with). A lone
// request therefore fans out over every lane, while concurrent requests
// each run on their own lane and overlap each other's serial stretches
// (resample, M-step, WAL fsync, JSON). Because every engine is
// bit-identical across worker counts, what a section is lent is free to
// vary call-to-call with load without perturbing any session's
// selection trace.
//
// The policy is starvation-free: an acquirer blocks only while every
// lane is held or lent, and Borrow lends nothing while an acquirer is
// blocked, so a waiting request gets the first lane a section returns.
type Budget struct {
	mu      sync.Mutex
	cond    *sync.Cond
	total   int
	inUse   int // base lanes held plus extras lent
	waiters int
	// waits counts contention events since boot: Acquire calls that had
	// to block and TryAcquire calls refused, because every lane was held
	// by a request or lent to a section. The overload controller diffs
	// this monotone counter across evaluation windows — "did anyone
	// queue since the last look" is a far sturdier saturation signal
	// than sampling lane occupancy at one instant.
	waits int64
}

// NewBudget creates a budget of total worker lanes (minimum 1).
func NewBudget(total int) *Budget {
	if total < 1 {
		total = 1
	}
	b := &Budget{total: total}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Acquire blocks until a lane is free and takes it as the request's
// base lane. release is idempotent and must be called when the request
// finishes.
func (b *Budget) Acquire() (release func()) {
	release, _ = b.acquire(true)
	return release
}

// TryAcquire is the non-blocking Acquire used by admission control's
// shed-before-queue policy and by opportunistic ingest: when every lane
// is held or lent it reports ok = false immediately instead of queueing
// the request behind a saturated budget.
func (b *Budget) TryAcquire() (release func(), ok bool) {
	return b.acquire(false)
}

func (b *Budget) acquire(block bool) (release func(), ok bool) {
	b.mu.Lock()
	if b.inUse >= b.total {
		b.waits++
		if !block {
			b.mu.Unlock()
			return func() {}, false
		}
	}
	for b.inUse >= b.total {
		b.waiters++
		b.cond.Wait()
		b.waiters--
	}
	b.inUse++
	b.mu.Unlock()

	// Hold-and-yield: give concurrently arrived requests one chance to
	// reach the budget before this one runs its CPU-bound section. On a
	// single-P runtime a short non-blocking section otherwise never
	// interleaves with other goroutines, so genuine queueing piles up
	// invisibly in the scheduler runqueue and the contention counter
	// reads an overloaded server as calm. The yield is ~free when the
	// runqueue is empty.
	runtime.Gosched()

	var once sync.Once
	return func() { once.Do(func() { b.Return(1) }) }, true
}

// Borrow lends a parallel section up to want extra lanes, without
// blocking: it takes what is free, and nothing while a request is
// blocked waiting for its base lane.
func (b *Budget) Borrow(want int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := min(want, b.total-b.inUse)
	if n <= 0 || b.waiters > 0 {
		return 0
	}
	b.inUse += n
	return n
}

// Return gives back n lanes taken by Borrow and wakes blocked acquirers.
func (b *Budget) Return(n int) {
	b.mu.Lock()
	b.inUse -= n
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Total returns the budget size.
func (b *Budget) Total() int { return b.total }

// InUse returns the lanes currently held by requests or lent to sections.
func (b *Budget) InUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inUse
}

// Waits returns the cumulative contention counter (see the field doc).
// This is the overload controller's second signal — a breached p99
// alone triggers degradation, but shedding additionally requires
// contention in every evaluation window, so a latency blip on an
// otherwise idle server never sheds.
func (b *Budget) Waits() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.waits
}
