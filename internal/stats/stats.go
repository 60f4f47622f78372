package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Pearson returns Pearson's correlation coefficient between xs and ys.
// It panics if the lengths differ and returns 0 when either input is
// constant or has fewer than two points.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// KendallTauB returns Kendall's tau-b rank correlation between xs and ys,
// with the standard tie correction. It panics on length mismatch and
// returns 0 when either sequence is entirely tied or shorter than two.
// The implementation is the O(n^2) pairwise definition, which is exact and
// fast enough for the validation sequences compared in the experiments
// (Table 2 uses at most a few thousand elements).
func KendallTauB(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: KendallTauB length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	var concordant, discordant, tiesX, tiesY int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := sign(xs[i] - xs[j])
			dy := sign(ys[i] - ys[j])
			switch {
			case dx == 0 && dy == 0:
				tiesX++
				tiesY++
			case dx == 0:
				tiesX++
			case dy == 0:
				tiesY++
			case dx == dy:
				concordant++
			default:
				discordant++
			}
		}
	}
	n0 := int64(n) * int64(n-1) / 2
	denom := math.Sqrt(float64(n0-tiesX)) * math.Sqrt(float64(n0-tiesY))
	if denom == 0 {
		return 0
	}
	return float64(concordant-discordant) / denom
}

func sign(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// RankSequenceTau compares two validation orderings: seqA and seqB each
// list item identifiers in validation order. The result is Kendall's
// tau-b over the rank vectors restricted to the items present in both
// sequences — items validated by only one process carry no order
// information about the other (treating them as "last" would make every
// disjoint pair artificially discordant). Fewer than two common items
// yield 0.
func RankSequenceTau(seqA, seqB []int) float64 {
	ra := make(map[int]float64, len(seqA))
	for pos, id := range seqA {
		if _, ok := ra[id]; !ok {
			ra[id] = float64(pos)
		}
	}
	rb := make(map[int]float64, len(seqB))
	for pos, id := range seqB {
		if _, ok := rb[id]; !ok {
			rb[id] = float64(pos)
		}
	}
	var ids []int
	for id := range ra {
		if _, ok := rb[id]; ok {
			ids = append(ids, id)
		}
	}
	if len(ids) < 2 {
		return 0
	}
	sort.Ints(ids)
	xs := make([]float64, len(ids))
	ys := make([]float64, len(ids))
	for i, id := range ids {
		xs[i] = ra[id]
		ys[i] = rb[id]
	}
	return KendallTauB(xs, ys)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// BoxStats is the five-number summary backing the box plots of Fig. 11.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
}

// Box computes the five-number summary of xs.
func Box(xs []float64) BoxStats {
	return BoxStats{
		Min:    Quantile(xs, 0),
		Q1:     Quantile(xs, 0.25),
		Median: Quantile(xs, 0.5),
		Q3:     Quantile(xs, 0.75),
		Max:    Quantile(xs, 1),
	}
}

// Clamp bounds x into [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Sigmoid returns 1/(1+exp(-x)) computed in a numerically stable way.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// BinaryEntropy returns the Shannon entropy (nats) of a Bernoulli(p)
// variable, treating 0*log 0 as 0.
func BinaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log(p) - (1-p)*math.Log(1-p)
}
