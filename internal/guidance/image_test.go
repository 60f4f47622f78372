package guidance

import (
	"errors"
	"testing"

	"factcheck/internal/wire"
)

// TestGainCacheImageRoundTrip: epochs survive exactly (the sweep and
// scoring seeds derive from them), entries of the current global epoch
// are served again, entries of an older one — which can never match —
// are dropped, and the counters start over.
func TestGainCacheImageRoundTrip(t *testing.T) {
	g := NewGainCache(77)
	g.InvalidateComponent(3)
	g.storeGain(gainInfo, 5, 3, 1.25) // will go stale with the global bump
	g.InvalidateAll()
	g.InvalidateComponent(1)
	g.InvalidateMerged([]int{4, 6})
	g.storeGain(gainInfo, 2, 1, 0.5)
	g.storeGain(gainSource, 9, 4, -0.75)
	g.storeGain(gainInfo, 8, 0, 2)
	g.InvalidateComponent(0) // claim 8's entry: current global, stale local — kept as is
	h := g.entropyFor(gainSource, 6, func() float64 { return 3.5 })
	g.gain(gainInfo, 2, 1)

	r := wire.NewReader(g.AppendImage(nil))
	got := ReadGainCacheImage(r, 77, 16)
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("read: err %v, %d bytes left", r.Err(), r.Len())
	}
	for comp := 0; comp < 8; comp++ {
		if got.SweepSeed(comp) != g.SweepSeed(comp) {
			t.Fatalf("component %d: epochs changed across the image", comp)
		}
		if got.scoreBase(gainSource, comp) != g.scoreBase(gainSource, comp) {
			t.Fatalf("component %d: scoring seeds changed across the image", comp)
		}
	}
	if v, ok := got.gain(gainInfo, 2, 1); !ok || v != 0.5 {
		t.Errorf("info gain of claim 2: %v, %v; want 0.5 from the cache", v, ok)
	}
	if v, ok := got.gain(gainSource, 9, 4); !ok || v != -0.75 {
		t.Errorf("source gain of claim 9: %v, %v; want -0.75 from the cache", v, ok)
	}
	if _, ok := got.gain(gainInfo, 5, 3); ok {
		t.Error("an entry from before the global bump is served")
	}
	if _, ok := got.gain(gainInfo, 8, 0); ok {
		t.Error("an entry from before its component was invalidated is served")
	}
	if again := got.entropyFor(gainSource, 6, func() float64 { t.Error("cached entropy recomputed"); return 0 }); again != h {
		t.Errorf("entropy of component 6: %v, want %v", again, h)
	}
	if got.Hits() != 2 || got.Misses() != 2 {
		t.Errorf("counters after four lookups on the restored cache: %d hits, %d misses", got.Hits(), got.Misses())
	}
	if string(got.AppendImage(nil)) != string(g.AppendImage(nil)) {
		t.Error("the restored cache encodes differently from the one that wrote the image")
	}
}

// TestReleasedGainCache: after Release every lookup misses and re-scores,
// the epochs and every seed derived from them are unchanged, and the
// released cache's image — epochs and empty tables — round-trips.
func TestReleasedGainCache(t *testing.T) {
	g := NewGainCache(77)
	g.InvalidateComponent(3)
	g.InvalidateAll()
	g.InvalidateMerged([]int{1, 4})
	g.storeGain(gainInfo, 2, 1, 0.5)
	g.storeGain(gainSource, 9, 4, -0.75)
	g.entropyFor(gainInfo, 4, func() float64 { return 3.5 })
	var sweep, score [6]int64
	for comp := range sweep {
		sweep[comp], score[comp] = g.SweepSeed(comp), int64(g.scoreBase(gainSource, comp))
	}

	g.Release()
	for comp := range sweep {
		if g.SweepSeed(comp) != sweep[comp] || int64(g.scoreBase(gainSource, comp)) != score[comp] {
			t.Fatalf("component %d: Release moved the epochs", comp)
		}
	}
	if _, ok := g.gain(gainInfo, 2, 1); ok {
		t.Error("a released cache serves an info gain")
	}
	if _, ok := g.gain(gainSource, 9, 4); ok {
		t.Error("a released cache serves a source gain")
	}
	recomputed := false
	if h := g.entropyFor(gainInfo, 4, func() float64 { recomputed = true; return 3.5 }); !recomputed || h != 3.5 {
		t.Errorf("a released cache served a component's entropy (%v) without recomputing it", h)
	}

	g.Release()
	img := g.AppendImage(nil)
	r := wire.NewReader(img)
	got := ReadGainCacheImage(r, 77, 16)
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("read: err %v, %d bytes left", r.Err(), r.Len())
	}
	if string(got.AppendImage(nil)) != string(img) {
		t.Error("a released cache's image does not round-trip")
	}
	for comp := range sweep {
		if got.SweepSeed(comp) != sweep[comp] {
			t.Fatalf("component %d: epochs changed across a released cache's image", comp)
		}
	}
	if _, ok := got.gain(gainInfo, 2, 1); ok {
		t.Error("a released cache's image serves a gain")
	}
}

func TestGainCacheImageRefuses(t *testing.T) {
	g := NewGainCache(1)
	g.InvalidateComponent(5)
	g.storeGain(gainInfo, 3, 5, 1)
	img := g.AppendImage(nil)
	for _, tc := range []struct {
		name   string
		img    []byte
		claims int
		want   error
	}{
		{"global epoch zero", append([]byte{0}, img[1:]...), 8, wire.ErrValue},
		{"more components than claims", img, 5, wire.ErrValue},
		{"more entries than claims", img, 3, wire.ErrValue},
		{"truncated", img[:len(img)-2], 8, wire.ErrShort},
	} {
		r := wire.NewReader(tc.img)
		ReadGainCacheImage(r, 1, tc.claims)
		if !errors.Is(r.Err(), tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, r.Err(), tc.want)
		}
	}
}
