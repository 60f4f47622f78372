package features

import (
	"math"
	"testing"
)

func TestStandardizeWeightedEmpty(t *testing.T) {
	mean, std := StandardizeWeighted(nil, 2, nil)
	if mean != nil || std != nil {
		t.Fatalf("empty input: got %v %v, want nil nil", mean, std)
	}
}

func TestStandardizeWeightedPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("length mismatch", func() {
		StandardizeWeighted([]float64{1, 2}, 1, []float64{1})
	})
	expectPanic("negative weight", func() {
		StandardizeWeighted([]float64{1, 2}, 1, []float64{1, -1})
	})
}

func TestStandardizeWeightedZeroWeightsFallsBack(t *testing.T) {
	a := []float64{1, 5, 3, 5}
	b := []float64{1, 5, 3, 5}
	meanW, stdW := StandardizeWeighted(a, 2, []float64{0, 0})
	mean, std := Standardize(b, 2)
	for j := range mean {
		if meanW[j] != mean[j] || stdW[j] != std[j] {
			t.Fatalf("zero weights should reduce to Standardize: %v %v vs %v %v", meanW, stdW, mean, std)
		}
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("value %d differs from unweighted standardisation", i)
		}
	}
}

func TestStandardizeWeightedMoments(t *testing.T) {
	// Column 0 carries signal; column 1 is constant and must zero out.
	flat := []float64{0, 7, 2, 7}
	mean, std := StandardizeWeighted(flat, 2, []float64{1, 3})
	rows := [][]float64{flat[0:2], flat[2:4]}
	wantMean := 1.5            // (1*0 + 3*2) / 4
	wantStd := math.Sqrt(0.75) // (1*2.25 + 3*0.25) / 4
	if math.Abs(mean[0]-wantMean) > 1e-12 || math.Abs(std[0]-wantStd) > 1e-12 {
		t.Fatalf("moments: mean %v std %v, want %v %v", mean[0], std[0], wantMean, wantStd)
	}
	if got, want := rows[0][0], (0-wantMean)/wantStd; math.Abs(got-want) > 1e-12 {
		t.Errorf("row 0 standardized to %v, want %v", got, want)
	}
	if got, want := rows[1][0], (2-wantMean)/wantStd; math.Abs(got-want) > 1e-12 {
		t.Errorf("row 1 standardized to %v, want %v", got, want)
	}
	if rows[0][1] != 0 || rows[1][1] != 0 {
		t.Errorf("constant column should standardize to zero: %v %v", rows[0][1], rows[1][1])
	}
	// The weighted mean of the standardized column is zero and its
	// weighted variance one.
	var m, v float64
	w := []float64{1, 3}
	for i := range rows {
		m += w[i] * rows[i][0]
	}
	m /= 4
	for i := range rows {
		v += w[i] * (rows[i][0] - m) * (rows[i][0] - m)
	}
	v /= 4
	if math.Abs(m) > 1e-12 || math.Abs(v-1) > 1e-12 {
		t.Errorf("standardized weighted moments: mean %v var %v, want 0 1", m, v)
	}
}
