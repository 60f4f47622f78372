package service

import (
	"runtime"
	"sync"
)

// Budget is the shared worker-lane budget that lets N concurrent
// sessions multiplex onto one bounded set of scoring/inference
// goroutines instead of each session assuming it owns the machine. A
// request acquires lanes for the duration of one inference or scoring
// round and releases them immediately after; because every engine is
// bit-identical across worker counts, the grant size is free to vary
// request-to-request with load without perturbing any session's
// selection trace.
//
// The policy is work-conserving and starvation-free: an acquirer blocks
// only while zero lanes are free, then takes everything free up to its
// ask. Under contention this degrades smoothly to one lane per request —
// 64 sessions on an 8-lane budget each proceed with 1–8 lanes as they
// become free — and under light load a single session gets the full
// budget.
type Budget struct {
	mu      sync.Mutex
	cond    *sync.Cond
	total   int
	inUse   int
	waiters int
	// waits counts contention events since boot: Acquire calls that had
	// to block and TryAcquire calls refused for want of a free lane. The
	// overload controller diffs this monotone counter across evaluation
	// windows — "did anyone queue since the last look" is a far sturdier
	// saturation signal than sampling lane occupancy at one instant.
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

// Acquire blocks until at least one lane is free, then takes up to want
// lanes (minimum 1). It returns the number granted and a release
// function; release is idempotent and must be called when the round
// finishes.
func (b *Budget) Acquire(want int) (granted int, release func()) {
	if want < 1 {
		want = 1
	}
	b.mu.Lock()
	if b.total-b.inUse < 1 {
		b.waits++
	}
	for b.total-b.inUse < 1 {
		b.waiters++
		b.cond.Wait()
		b.waiters--
	}
	granted = b.total - b.inUse
	if granted > want {
		granted = want
	}
	b.inUse += granted
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
	release = func() {
		once.Do(func() {
			b.mu.Lock()
			b.inUse -= granted
			b.mu.Unlock()
			b.cond.Broadcast()
		})
	}
	return granted, release
}

// TryAcquire is the non-blocking Acquire used by admission control's
// shed-before-queue policy: when no lane is free it reports ok = false
// immediately instead of queueing the request behind a saturated budget.
// On success it grants up to want lanes exactly like Acquire.
func (b *Budget) TryAcquire(want int) (granted int, release func(), ok bool) {
	if want < 1 {
		want = 1
	}
	b.mu.Lock()
	free := b.total - b.inUse
	if free < 1 {
		b.waits++
		b.mu.Unlock()
		return 0, func() {}, false
	}
	granted = free
	if granted > want {
		granted = want
	}
	b.inUse += granted
	b.mu.Unlock()

	runtime.Gosched() // see Acquire: keep arrival pressure visible

	var once sync.Once
	release = func() {
		once.Do(func() {
			b.mu.Lock()
			b.inUse -= granted
			b.mu.Unlock()
			b.cond.Broadcast()
		})
	}
	return granted, release, true
}

// Total returns the budget size.
func (b *Budget) Total() int { return b.total }

// InUse returns the lanes currently granted.
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
