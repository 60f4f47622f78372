package stream

import (
	"math"
	"sync"
	"testing"

	"factcheck/internal/crf"
	"factcheck/internal/synth"
)

// TestConcurrentArrivalsAndValidations interleaves three producers — raw
// arrivals, validated claims flowing back from Alg. 1, and a reader
// polling parameters/predictions — against one engine. Run under -race
// this is the §7 serving scenario: the stream never pauses while
// validators work. The final parameter vector depends on interleaving
// (as with any real stream order), so the test asserts integrity, not a
// specific value: every arrival counted, buffer bounded, parameters
// finite.
func TestConcurrentArrivalsAndValidations(t *testing.T) {
	corpus := synth.Generate(synth.Wikipedia.Scaled(0.15), 17)
	model := crf.New(corpus.DB)
	const capacity = 128
	e := newWithBufferCap(model.Dim(), capacity)

	order := corpus.ClaimOrder
	half := len(order) / 2

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // unvalidated arrivals
		defer wg.Done()
		for _, c := range order[:half] {
			rows, signs := RowsForClaim(model, c, nil)
			e.ObserveClaim(rows, signs, nil)
		}
	}()
	go func() { // validated claims flowing back from the guidance loop
		defer wg.Done()
		for _, c := range order[half:] {
			rows, signs := RowsForClaim(model, c, nil)
			v := corpus.Truth[c]
			e.ObserveClaim(rows, signs, &v)
		}
	}()
	go func() { // a concurrent reader (the Alg. 1 side pulling parameters)
		defer wg.Done()
		probe, signs := RowsForClaim(model, order[0], nil)
		for i := 0; i < 50; i++ {
			theta := e.Theta()
			if len(theta) != model.Dim() {
				t.Errorf("Theta dimension %d, want %d", len(theta), model.Dim())
				return
			}
			if p := e.Predict(probe, signs); math.IsNaN(p) {
				t.Error("Predict returned NaN during concurrent updates")
				return
			}
			_ = e.T()
			_ = e.BufferLen()
		}
	}()
	wg.Wait()

	if got := e.T(); got != len(order) {
		t.Fatalf("observed %d claims, want %d", got, len(order))
	}
	if got := e.BufferLen(); got > capacity {
		t.Fatalf("buffer %d exceeds cap %d", got, capacity)
	}
	for _, w := range e.Theta() {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("non-finite parameter after concurrent updates: %v", w)
		}
	}
}
