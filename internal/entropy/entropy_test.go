package entropy

import (
	"math"
	"testing"

	"factcheck/internal/factdb"
	"factcheck/internal/stats"
)

func TestApproxFreshStateIsMaxEntropy(t *testing.T) {
	state := factdb.NewState(5)
	want := 5 * math.Log(2)
	if got := Approx(state); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Approx = %v, want %v", got, want)
	}
}

func TestApproxDropsWithLabels(t *testing.T) {
	state := factdb.NewState(4)
	h0 := Approx(state)
	state.SetLabel(0, true)
	state.SetLabel(1, false)
	h1 := Approx(state)
	want := 2 * math.Log(2)
	if math.Abs(h1-want) > 1e-12 {
		t.Fatalf("Approx after labels = %v, want %v", h1, want)
	}
	if h1 >= h0 {
		t.Fatal("entropy must drop with labels")
	}
}

func TestApproxClaimsSubset(t *testing.T) {
	state := factdb.NewState(4)
	state.SetP(0, 0.9)
	got := ApproxClaims(state, []int32{0, 1})
	want := stats.BinaryEntropy(0.9) + math.Log(2)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ApproxClaims = %v, want %v", got, want)
	}
}
