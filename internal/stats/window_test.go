package stats

import (
	"math"
	"testing"
)

// relClose reports a ≈ b within the histogram's bucket resolution
// (half the geometric growth, ~5%).
func relClose(a, b float64) bool {
	if b == 0 {
		return a == 0
	}
	return math.Abs(a-b)/b < 0.06
}

// An empty window must return no-signal, not zero: the SLO controller
// distinguishes "idle server" from "zero-latency server".
func TestWindowedHistEmptyWindowNoSignal(t *testing.T) {
	w := NewWindowedHist(10, 5)
	if _, ok := w.Quantile(0, 0.99); ok {
		t.Fatal("empty window reported a p99 signal")
	}
	if n := w.Count(7); n != 0 {
		t.Fatalf("empty window count = %d, want 0", n)
	}
	// Observations present, but the read time is far past the window:
	// the signal must have aged out entirely.
	w.Add(1, 0.5)
	if _, ok := w.Quantile(100, 0.99); ok {
		t.Fatal("stale observations still produced a p99 signal")
	}
}

// A read merges every live slot before taking the quantile: values
// spread across slots must digest as one population.
func TestWindowedHistMergeThenQuantile(t *testing.T) {
	w := NewWindowedHist(10, 5) // 2s slots
	// 50 fast observations in one slot, 1 slow in another; nearest-rank
	// p99 of the merged 51 lands on the slow one.
	for i := 0; i < 50; i++ {
		w.Add(1, 0.010)
	}
	w.Add(5, 1.0)
	p99, ok := w.Quantile(6, 0.99)
	if !ok {
		t.Fatal("window with observations reported no signal")
	}
	if !relClose(p99, 1.0) {
		t.Fatalf("merged p99 = %v, want ~1.0", p99)
	}
	p50, ok := w.Quantile(6, 0.50)
	if !ok || !relClose(p50, 0.010) {
		t.Fatalf("merged p50 = %v (ok=%v), want ~0.010", p50, ok)
	}
	if n := w.Count(6); n != 51 {
		t.Fatalf("window count = %d, want 51", n)
	}
}

// Rolling reset: as time advances, old slots fall out of the window and
// their buckets are recycled, so the quantile tracks the recent regime.
func TestWindowedHistRollingReset(t *testing.T) {
	w := NewWindowedHist(10, 5) // 2s slots, window [t-10, t]
	// Slow regime at t∈[0,4): would breach any SLO.
	for i := 0; i < 50; i++ {
		w.Add(float64(i%4), 2.0)
	}
	if p99, ok := w.Quantile(4, 0.99); !ok || !relClose(p99, 2.0) {
		t.Fatalf("slow-regime p99 = %v (ok=%v), want ~2.0", p99, ok)
	}
	// Fast regime from t=12 on; by t=15 the slow slots are outside the
	// window and must no longer contribute.
	for i := 0; i < 50; i++ {
		w.Add(12+float64(i%4), 0.005)
	}
	p99, ok := w.Quantile(15, 0.99)
	if !ok {
		t.Fatal("fast regime reported no signal")
	}
	if !relClose(p99, 0.005) {
		t.Fatalf("post-recovery p99 = %v, want ~0.005 (slow regime leaked into the window)", p99)
	}
	// Slot recycling: writing at a time that maps onto a stale slot's
	// array position must reset that slot, not absorb into it.
	if n := w.Count(15); n != 50 {
		t.Fatalf("window count after rollover = %d, want 50", n)
	}
}

// Writes into the same absolute slot accumulate; a later rotation onto
// the same array index starts fresh.
func TestWindowedHistSlotRecycling(t *testing.T) {
	w := NewWindowedHist(4, 2) // 2s slots, 2 of them
	w.Add(0.5, 1.0)
	w.Add(1.5, 1.0) // same slot 0
	if n := w.Count(1.9); n != 2 {
		t.Fatalf("same-slot accumulation count = %d, want 2", n)
	}
	// t=4 maps to slot number 2 → array index 0 again: must reset.
	w.Add(4.1, 0.001)
	if n := w.Count(5); n != 1 {
		t.Fatalf("recycled-slot count = %d, want 1 (old slot contents leaked)", n)
	}
}

// Negative timestamps clamp to zero instead of panicking (a defensive
// guard for clock skew in wall mode).
func TestWindowedHistNegativeTimeClamped(t *testing.T) {
	w := NewWindowedHist(10, 5)
	w.Add(-3, 0.25)
	if p, ok := w.Quantile(0, 0.5); !ok || !relClose(p, 0.25) {
		t.Fatalf("negative-time observation lost: p50 = %v (ok=%v)", p, ok)
	}
}
