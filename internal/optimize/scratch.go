package optimize

import (
	"math/bits"
	"sync"
	"weak"
)

// Scratch is a process-wide free list of arrays: the M-step's
// per-clique scratch (the design matrix, targets, weights and trust
// features of crf.Model.MStepProblem, a Logistic's per-row caches, the
// clique base scores and the Gibbs sampler's per-source slots) is
// borrowed from it for one step and given back after, as the what-if
// workers are borrowed per scoring round (guidance.Pool). No model or
// session holds such an array between steps, so the scratch scales with
// the steps in flight, not with the sessions alive.
//
// The list holds what it is given weakly: the collector may take a
// parked array back at any cycle, so the list adds nothing to the heap
// a collection leaves live, and a process that stops stepping gives the
// memory back by itself. Arrays are parked by size class — class k
// holds arrays of at least 2^k elements, and a new array is made 2^k
// long — so a borrow looks at one class only, newest first, and never
// touches an array it does not take: reading a weak pointer during a
// collection's mark phase keeps its array alive. A class parks at most
// parkedPerClass arrays, the oldest going first. A borrowed array is
// zeroed, as a new one is, so what a step computes does not depend on
// whether it was reused. Giving an array back is optional: one that is
// never given back is left to the collector.
type Scratch[T any] struct {
	mu      sync.Mutex
	classes [bits.UintSize][]weak.Pointer[parked[T]]
}

// parked is an array on a free list; the list points at it weakly.
type parked[T any] struct{ s []T }

// parkedPerClass bounds each size class: a few more than the arrays one
// step of each of a few concurrent sessions takes from it.
const parkedPerClass = 16

// Floats and Int32s are the process's free lists.
var (
	Floats Scratch[float64]
	Int32s Scratch[int32]
)

// Borrow returns a zeroed array of length n: the newest live one parked
// in n's size class, or a new one.
func (f *Scratch[T]) Borrow(n int) []T {
	if n == 0 {
		return nil
	}
	k := bits.Len(uint(n - 1)) // the least k with 2^k ≥ n
	var s []T
	f.mu.Lock()
	for c := f.classes[k]; len(c) > 0 && s == nil; {
		p := c[len(c)-1].Value()
		c[len(c)-1] = weak.Pointer[parked[T]]{}
		c = c[:len(c)-1]
		f.classes[k] = c
		if p != nil {
			s = p.s
		}
	}
	f.mu.Unlock()
	if s == nil {
		return make([]T, n, 1<<k)
	}
	s = s[:n]
	clear(s)
	return s
}

// Return parks s in the largest class it can serve. The caller must not
// use s afterwards.
func (f *Scratch[T]) Return(s []T) {
	if cap(s) == 0 {
		return
	}
	k := bits.Len(uint(cap(s))) - 1 // the greatest k with 2^k ≤ cap(s)
	w := weak.Make(&parked[T]{s[:0]})
	f.mu.Lock()
	c := f.classes[k]
	if len(c) == parkedPerClass {
		c = append(c[:0], c[1:]...)
	}
	f.classes[k] = append(c, w)
	f.mu.Unlock()
}
