package gibbs

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Lender lends a parallel section the goroutines it runs beyond its
// caller. A serving layer implements it over its shared lane budget
// (service.Budget): a request holds one lane for its whole duration and
// each section borrows what else is free for just as long as it runs. A
// nil Lender lends everything asked — library sessions, experiments and
// benchmarks own the machine. Every section is bit-identical across
// widths (per-task reseeding), so whatever a lender grants is
// trace-neutral.
type Lender interface {
	// Borrow takes up to want lanes without blocking and returns how
	// many it took (possibly 0).
	Borrow(want int) int
	// Return gives back n lanes taken by Borrow.
	Return(n int)
}

// Borrow resolves how many goroutines beyond its caller a parallel
// section of n tasks runs: workers (<= 0 means GOMAXPROCS) capped by n,
// less the caller itself, and under a lender only what it lends of that.
// Pair it with Return.
func Borrow(lanes Lender, workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return 0
	}
	if lanes == nil {
		return workers - 1
	}
	return lanes.Borrow(workers - 1)
}

// Return ends the section Borrow opened, handing its extras back.
func Return(lanes Lender, extra int) {
	if lanes != nil && extra > 0 {
		lanes.Return(extra)
	}
}

// Fan runs body(worker, i) once for every task i in [0, n): the caller
// is worker 0 and extra goroutines are workers 1..extra, all pulling
// task indices from one shared counter, so extra == 0 is the serial
// loop. body may keep per-worker scratch indexed by worker; it must not
// depend on which worker runs which task. Fan returns when every task
// has finished.
func Fan(n, extra int, body func(worker, i int)) {
	var next atomic.Int64
	work := func(worker int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			body(worker, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w <= extra; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}
