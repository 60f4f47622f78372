package stats

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

func TestLogHistEmpty(t *testing.T) {
	h := NewLogHist()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile must be 0")
	}
	s := h.Summary()
	if s.Count != 0 || s.P99 != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	if len(h.Buckets()) != 0 {
		t.Fatal("empty histogram has buckets")
	}
}

func TestLogHistQuantileAccuracy(t *testing.T) {
	// Against known uniform data the bucketed quantiles must land within
	// the documented relative error of the exact quantiles.
	h := NewLogHist()
	var xs []float64
	r := NewRNG(5)
	for i := 0; i < 20000; i++ {
		x := 0.001 + 0.999*r.Float64() // spread over three decades
		xs = append(xs, x)
		h.Add(x)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := Quantile(xs, q)
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.06 {
			t.Fatalf("q%.2f: hist %v vs exact %v (rel err %.3f)", q, got, exact, rel)
		}
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Fatal("extreme quantiles must be the exact min/max")
	}
}

// TestLogHistQuantileErrorBound: every quantile lies within the
// documented relative error of the nearest-rank order statistic — the
// geometric midpoint of a bucket [g^i, g^(i+1)) is at most √g − 1
// ≈ 4.4 % from any value in it — on heavy-tailed and bucket-boundary
// inputs. The 1e-9 covers the boundary snap of bucketIndex.
func TestLogHistQuantileErrorBound(t *testing.T) {
	bound := math.Sqrt(histGrowth)*(1+1e-9) - 1
	r := NewRNG(20261015)
	inputs := map[string]func() float64{
		"log-normal": func() float64 { return math.Exp(3 * r.NormFloat64()) },
		"pareto":     func() float64 { return 1e-3 / math.Pow(1-r.Float64(), 1/1.5) },
		"boundaries": func() float64 {
			x := math.Pow(histGrowth, float64(r.Intn(301)-150))
			switch r.Intn(3) {
			case 0:
				x = math.Nextafter(x, 0)
			case 1:
				x = math.Nextafter(x, math.Inf(1))
			}
			return x
		},
	}
	for name, draw := range inputs {
		for _, n := range []int{1, 7, 100, 5000} {
			h := NewLogHist()
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = draw()
				h.Add(xs[i])
			}
			sort.Float64s(xs)
			for k := 1; k <= 99; k++ {
				q := float64(k) / 100
				want := xs[max(int(math.Ceil(q*float64(n))), 1)-1]
				if got := h.Quantile(q); !(math.Abs(got-want) <= bound*want) {
					t.Fatalf("%s, n = %d, q = %.2f: %v against the order statistic %v (relative error %.4f > %.4f)",
						name, n, q, got, want, math.Abs(got-want)/want, bound)
				}
			}
		}
	}
}

func TestLogHistMeanMinMax(t *testing.T) {
	h := NewLogHist()
	for _, x := range []float64{0.5, 1.5, 4.0} {
		h.Add(x)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Mean()-2.0) > 1e-12 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != 0.5 || h.Max() != 4.0 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestLogHistClampsBadValues(t *testing.T) {
	h := NewLogHist()
	h.Add(0)
	h.Add(-3)
	h.Add(math.NaN())
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() > 1e-8 {
		t.Fatalf("clamped max = %v", h.Max())
	}
	if q := h.Quantile(0.5); math.IsNaN(q) || q < 0 {
		t.Fatalf("quantile of clamped data = %v", q)
	}
}

func TestLogHistMerge(t *testing.T) {
	a, b, all := NewLogHist(), NewLogHist(), NewLogHist()
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		x := math.Exp(2 * r.NormFloat64())
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
		all.Add(x)
	}
	a.Merge(b)
	a.Merge(nil)          // no-op
	a.Merge(NewLogHist()) // empty no-op
	if a.Count() != all.Count() || a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatalf("merge digest mismatch: %+v vs %+v", a.Summary(), all.Summary())
	}
	if a.Quantile(0.9) != all.Quantile(0.9) {
		t.Fatalf("merged p90 %v != combined p90 %v", a.Quantile(0.9), all.Quantile(0.9))
	}
}

func TestLogHistBuckets(t *testing.T) {
	h := NewLogHist()
	h.Add(1.0)
	h.Add(1.0)
	h.Add(100.0)
	bs := h.Buckets()
	if len(bs) != 2 {
		t.Fatalf("buckets = %v", bs)
	}
	var total int64
	for i, b := range bs {
		if b.Hi <= b.Lo {
			t.Fatalf("bucket %d has Hi <= Lo: %+v", i, b)
		}
		if i > 0 && b.Lo < bs[i-1].Hi {
			t.Fatal("buckets out of order")
		}
		total += b.Count
	}
	if total != h.Count() {
		t.Fatalf("bucket counts sum to %d, want %d", total, h.Count())
	}
	// Each observation lies inside its bucket.
	if !(bs[0].Lo <= 1.0 && 1.0 < bs[0].Hi) {
		t.Fatalf("1.0 outside first bucket %+v", bs[0])
	}
	if !(bs[1].Lo <= 100.0 && 100.0 < bs[1].Hi) {
		t.Fatalf("100.0 outside last bucket %+v", bs[1])
	}
}

func TestLogHistZeroValueUsable(t *testing.T) {
	// The zero value must behave like NewLogHist(): Add and Merge used to
	// panic on the nil bucket map.
	var h LogHist
	h.Add(0.25)
	h.Add(4)
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2", h.Count())
	}
	if h.Min() != 0.25 || h.Max() != 4 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}

	var dst LogHist
	src := NewLogHist()
	src.Add(1)
	src.Add(2)
	dst.Merge(src)
	if dst.Count() != 2 || dst.Min() != 1 || dst.Max() != 2 {
		t.Fatalf("merge into zero value: %+v", dst.Summary())
	}

	// Merging a zero-value (and a nil) source is a no-op, not a panic.
	var empty LogHist
	dst.Merge(&empty)
	dst.Merge(nil)
	if dst.Count() != 2 {
		t.Fatalf("Count after empty merges = %d, want 2", dst.Count())
	}
}

func TestLogHistBucketBoundariesExact(t *testing.T) {
	// Exact bucket boundaries g^k must land in bucket k on every libm:
	// without the snap guard, floor(log(g^k)/log(g)) flips to k-1 when
	// the quotient rounds just below k, shifting quantiles by a bucket
	// across machines.
	for k := -60; k <= 60; k++ {
		x := math.Pow(histGrowth, float64(k))
		if got := bucketIndex(x); got != k {
			t.Fatalf("bucketIndex(g^%d) = %d, want %d", k, got, k)
		}
		// The bucket's exported bounds must contain the boundary value.
		h := NewLogHist()
		h.Add(x)
		b := h.Buckets()
		if len(b) != 1 {
			t.Fatalf("k=%d: %d buckets", k, len(b))
		}
		if !(b[0].Lo <= x*(1+1e-12)) || !(x < b[0].Hi) {
			t.Fatalf("k=%d: %v outside [%v, %v)", k, x, b[0].Lo, b[0].Hi)
		}
	}
	// Interior values are untouched by the snap: the geometric midpoint
	// of bucket k stays in bucket k.
	for k := -60; k <= 60; k++ {
		mid := math.Pow(histGrowth, float64(k)+0.5)
		if got := bucketIndex(mid); got != k {
			t.Fatalf("bucketIndex(midpoint of %d) = %d", k, got)
		}
	}
}

// TestLogHistAbsorbBuckets: a histogram exported as buckets+digest
// (the /metrics wire shape) and absorbed into a fresh LogHist must
// reproduce the original's buckets exactly and its count/mean/min/max
// from the digest — the round-trip a shard router's fleet-wide
// aggregation performs.
func TestLogHistAbsorbBuckets(t *testing.T) {
	orig := NewLogHist()
	for i := 1; i <= 200; i++ {
		orig.Add(float64(i) * 0.003)
	}
	var agg LogHist
	agg.AbsorbBuckets(orig.Buckets(), orig.Summary())
	if !reflect.DeepEqual(agg.Buckets(), orig.Buckets()) {
		t.Fatalf("bucket round-trip diverged:\norig: %+v\nagg:  %+v", orig.Buckets(), agg.Buckets())
	}
	os, as := orig.Summary(), agg.Summary()
	if as != os {
		t.Fatalf("summary round-trip diverged:\norig: %+v\nagg:  %+v", os, as)
	}

	// Absorbing a second export merges, like Merge does.
	other := NewLogHist()
	for i := 1; i <= 50; i++ {
		other.Add(float64(i) * 0.1)
	}
	agg.AbsorbBuckets(other.Buckets(), other.Summary())
	merged := NewLogHist()
	merged.Merge(orig)
	merged.Merge(other)
	if !reflect.DeepEqual(agg.Buckets(), merged.Buckets()) {
		t.Fatal("two absorbed exports differ from a direct merge")
	}
	if agg.Count() != merged.Count() || agg.Min() != merged.Min() || agg.Max() != merged.Max() {
		t.Fatalf("absorbed totals diverged: count %d/%d min %v/%v max %v/%v",
			agg.Count(), merged.Count(), agg.Min(), merged.Min(), agg.Max(), merged.Max())
	}

	// An empty export is a no-op.
	agg2 := NewLogHist()
	agg2.AbsorbBuckets(nil, Summary{})
	if agg2.Count() != 0 {
		t.Fatal("empty absorb changed the histogram")
	}
}
