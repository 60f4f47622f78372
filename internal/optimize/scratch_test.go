package optimize

import (
	"runtime"
	"sync"
	"testing"
)

// TestScratchReusesZeroed: a returned array is borrowed again by a
// request of its size class — an array the list made for 2^k elements
// serves every request above 2^(k−1), one it did not make the class
// below its capacity — and comes back zeroed, as a new one would.
func TestScratchReusesZeroed(t *testing.T) {
	var f Scratch[float64]
	small, large := f.Borrow(7), f.Borrow(64)
	if cap(small) != 8 || cap(large) != 64 {
		t.Fatalf("made arrays of %d and %d floats for 7 and 64", cap(small), cap(large))
	}
	for i := range large {
		large[i] = float64(i + 1)
	}
	small[0] = 1
	f.Return(large)
	f.Return(small)
	got := f.Borrow(5)
	if &got[0] != &small[0] || len(got) != 5 {
		t.Fatalf("borrowed %d floats at %p; want the 8-float array at %p", len(got), &got[0], &small[0])
	}
	if got[0] != 0 {
		t.Error("a reused array is not zeroed")
	}
	got = f.Borrow(40)
	if &got[0] != &large[0] {
		t.Fatal("the 64-float array was not reused for 40 floats")
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("a reused array holds %v at %d", v, i)
		}
	}
	if again := f.Borrow(40); &again[0] == &large[0] {
		t.Fatal("an array was lent twice")
	}
	odd := make([]float64, 100)
	f.Return(odd)
	if got := f.Borrow(100); &got[0] == &odd[0] {
		t.Fatal("a 100-float array served from the class of 128")
	}
	if got := f.Borrow(50); &got[0] != &odd[0] {
		t.Fatal("a 100-float array was not reused for 50 floats")
	}
	if f.Borrow(0) != nil {
		t.Error("borrowing nothing returned an array")
	}
	for range 2 * parkedPerClass {
		f.Return(make([]float64, 4))
	}
	if n := len(f.classes[2]); n != parkedPerClass {
		t.Errorf("a class parks %d arrays, bound %d", n, parkedPerClass)
	}
}

// TestScratchHoldsNothingLive: the list parks arrays weakly, so a
// collection takes them back and the list keeps no live heap.
func TestScratchHoldsNothingLive(t *testing.T) {
	var f Scratch[int32]
	park := func() {
		for range 4 {
			f.Return(make([]int32, 1<<16))
		}
	}
	park()
	runtime.GC()
	for i, w := range f.classes[16] {
		if w.Value() != nil {
			t.Fatalf("array %d is still parked after a collection", i)
		}
	}
	if f.Borrow(1 << 16)[0] != 0 || len(f.classes[16]) != 0 {
		t.Fatal("borrowing from a class of collected arrays left it holding entries")
	}
}

// TestScratchSharedAcrossGoroutines: steps on several goroutines borrow
// from one list at once; each gets an array no other step holds, zeroed.
func TestScratchSharedAcrossGoroutines(t *testing.T) {
	var f Scratch[float64]
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				s := f.Borrow(16 + (i+g)%48)
				for j := range s {
					if s[j] != 0 {
						t.Errorf("goroutine %d: borrowed a dirty array", g)
						return
					}
					s[j] = float64(g + 1)
				}
				runtime.Gosched()
				for j := range s {
					if s[j] != float64(g+1) {
						t.Errorf("goroutine %d: another step wrote into its array", g)
						return
					}
				}
				f.Return(s)
			}
		}()
	}
	wg.Wait()
}
