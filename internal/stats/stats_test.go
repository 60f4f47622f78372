package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if !almostEqual(sum/n, 0.5, 0.01) {
		t.Fatalf("uniform mean = %v, want ~0.5", sum/n)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d distinct values", len(seen))
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(5)
	const n = 100000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if !almostEqual(mean, 0, 0.02) {
		t.Errorf("normal mean = %v", mean)
	}
	if !almostEqual(variance, 1, 0.05) {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestBetaMoments(t *testing.T) {
	r := NewRNG(9)
	alpha, beta := 2.0, 5.0
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Beta(alpha, beta)
		if v < 0 || v > 1 {
			t.Fatalf("Beta out of [0,1]: %v", v)
		}
		sum += v
	}
	want := alpha / (alpha + beta)
	if !almostEqual(sum/n, want, 0.01) {
		t.Fatalf("Beta mean = %v, want ~%v", sum/n, want)
	}
}

func TestGammaMean(t *testing.T) {
	r := NewRNG(13)
	for _, shape := range []float64{0.5, 1, 3.5} {
		const n = 60000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += r.Gamma(shape)
		}
		if !almostEqual(sum/n, shape, 0.08*math.Max(1, shape)) {
			t.Errorf("Gamma(%v) mean = %v", shape, sum/n)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(17)
	p := r.Perm(50)
	sorted := append([]int(nil), p...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("Perm missing %d", i)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(19)
	z := NewZipf(100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		counts[z.Draw(r)]++
	}
	if counts[0] <= counts[10] {
		t.Fatalf("Zipf not skewed: rank0=%d rank10=%d", counts[0], counts[10])
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := NewRNG(23)
	z := NewZipf(10, 0)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Draw(r)]++
	}
	for i, c := range counts {
		if !almostEqual(float64(c)/n, 0.1, 0.01) {
			t.Fatalf("rank %d frequency %v, want ~0.1", i, float64(c)/n)
		}
	}
}

func TestZipfDrawInRange(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := NewRNG(seed)
		z := NewZipf(17, 1.0)
		for i := 0; i < 100; i++ {
			v := z.Draw(r)
			if v < 0 || v >= 17 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Mean(xs); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty-slice mean should be 0")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", got)
	}
}

func TestPearsonConstantInput(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("Pearson with constant x = %v, want 0", got)
	}
}

func TestPearsonBounded(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := NewRNG(seed)
		n := 3 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		p := Pearson(xs, ys)
		return p >= -1-1e-9 && p <= 1+1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestKendallTauBPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 20, 30, 40, 50}
	if got := KendallTauB(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("tau = %v, want 1", got)
	}
	rev := []float64{50, 40, 30, 20, 10}
	if got := KendallTauB(xs, rev); !almostEqual(got, -1, 1e-12) {
		t.Errorf("tau = %v, want -1", got)
	}
}

func TestKendallTauBKnownValue(t *testing.T) {
	// Classic example: one discordant swap among 4 items.
	xs := []float64{1, 2, 3, 4}
	ys := []float64{1, 2, 4, 3}
	// 5 concordant, 1 discordant of 6 pairs -> tau = 4/6.
	if got := KendallTauB(xs, ys); !almostEqual(got, 4.0/6.0, 1e-12) {
		t.Errorf("tau = %v, want %v", got, 4.0/6.0)
	}
}

func TestKendallTauBTies(t *testing.T) {
	xs := []float64{1, 1, 2, 2}
	ys := []float64{1, 2, 3, 4}
	got := KendallTauB(xs, ys)
	// concordant = 4 (pairs crossing the tie groups), ties in x = 2.
	// denom = sqrt(6-2)*sqrt(6-0) = sqrt(24); tau = 4/sqrt(24).
	want := 4 / math.Sqrt(24)
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("tau = %v, want %v", got, want)
	}
}

func TestKendallTauBAllTied(t *testing.T) {
	if got := KendallTauB([]float64{1, 1, 1}, []float64{2, 2, 2}); got != 0 {
		t.Errorf("tau = %v, want 0 for all ties", got)
	}
}

func TestKendallBounded(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := NewRNG(seed)
		n := 2 + r.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(5))
			ys[i] = float64(r.Intn(5))
		}
		tau := KendallTauB(xs, ys)
		return tau >= -1-1e-9 && tau <= 1+1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankSequenceTauIdentical(t *testing.T) {
	seq := []int{4, 2, 9, 1}
	if got := RankSequenceTau(seq, seq); !almostEqual(got, 1, 1e-12) {
		t.Errorf("tau = %v, want 1 for identical sequences", got)
	}
}

func TestRankSequenceTauReversed(t *testing.T) {
	a := []int{1, 2, 3, 4, 5}
	b := []int{5, 4, 3, 2, 1}
	if got := RankSequenceTau(a, b); !almostEqual(got, -1, 1e-12) {
		t.Errorf("tau = %v, want -1 for reversed", got)
	}
}

func TestRankSequenceTauPartialOverlap(t *testing.T) {
	// The comparison is over the intersection {1,2,3}, where the orders
	// agree perfectly.
	a := []int{1, 2, 3}
	b := []int{1, 2, 3, 4, 5}
	if got := RankSequenceTau(a, b); !almostEqual(got, 1, 1e-12) {
		t.Errorf("tau = %v, want 1 on agreeing intersection", got)
	}
	// Reversed on the intersection.
	c := []int{9, 3, 2, 1}
	if got := RankSequenceTau(a, c); !almostEqual(got, -1, 1e-12) {
		t.Errorf("tau = %v, want -1 on reversed intersection", got)
	}
}

func TestRankSequenceTauEmpty(t *testing.T) {
	if got := RankSequenceTau(nil, nil); got != 0 {
		t.Errorf("tau = %v, want 0 for empty", got)
	}
	// Fewer than two common items.
	if got := RankSequenceTau([]int{1, 2}, []int{2, 9}); got != 0 {
		t.Errorf("tau = %v, want 0 with one common item", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if got := Quantile(xs, 0.5); !almostEqual(got, 3, 1e-12) {
		t.Errorf("median = %v", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("min = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("max = %v", got)
	}
	if got := Quantile(xs, 0.25); !almostEqual(got, 2, 1e-12) {
		t.Errorf("q1 = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); !almostEqual(got, 5, 1e-12) {
		t.Errorf("interpolated median = %v, want 5", got)
	}
}

func TestBoxOrdering(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		b := Box(xs)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(100); !almostEqual(got, 1, 1e-9) {
		t.Errorf("Sigmoid(100) = %v", got)
	}
	if got := Sigmoid(-100); !almostEqual(got, 0, 1e-9) {
		t.Errorf("Sigmoid(-100) = %v", got)
	}
	// Symmetry property: sigmoid(-x) = 1 - sigmoid(x).
	err := quick.Check(func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return almostEqual(Sigmoid(-x), 1-Sigmoid(x), 1e-9)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBinaryEntropy(t *testing.T) {
	if got := BinaryEntropy(0.5); !almostEqual(got, math.Log(2), 1e-12) {
		t.Errorf("H(0.5) = %v, want ln 2", got)
	}
	if BinaryEntropy(0) != 0 || BinaryEntropy(1) != 0 {
		t.Error("H(0) and H(1) must be 0")
	}
	// Symmetry and maximum-at-half properties.
	err := quick.Check(func(raw float64) bool {
		p := math.Abs(math.Mod(raw, 1))
		return almostEqual(BinaryEntropy(p), BinaryEntropy(1-p), 1e-9) &&
			BinaryEntropy(p) <= math.Log(2)+1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestReseedMatchesNewRNG(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		fresh := NewRNG(seed)
		reused := NewRNG(seed + 999)
		reused.Uint64() // advance, then reset in place
		reused.Reseed(seed)
		for i := 0; i < 50; i++ {
			if a, b := fresh.Uint64(), reused.Uint64(); a != b {
				t.Fatalf("seed %d: Reseed stream diverged at draw %d: %x vs %x", seed, i, a, b)
			}
		}
	}
}

func TestStreamSeedDeterministicAndDistinct(t *testing.T) {
	const base = 0xdeadbeefcafe
	seen := map[int64]uint64{}
	for id := uint64(0); id < 200; id++ {
		s := StreamSeed(base, id)
		if s != StreamSeed(base, id) {
			t.Fatal("StreamSeed not deterministic")
		}
		if prev, ok := seen[s]; ok {
			t.Fatalf("StreamSeed collision: ids %d and %d both map to %d", prev, id, s)
		}
		seen[s] = id
	}
	// Different bases must give different stream families.
	if StreamSeed(base, 0) == StreamSeed(base+1, 0) {
		t.Fatal("StreamSeed ignores the base")
	}
}
