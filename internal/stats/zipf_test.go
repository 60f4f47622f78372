package stats

import (
	"math"
	"testing"
)

// binarySearchRank is the draw Zipf had before its guide table: a
// binary search of all of cum.
func binarySearchRank(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfDrawMatchesBinarySearch holds the guided search to the full
// binary search at every guide-bucket edge, both of its neighbours,
// every cumulative weight and its neighbours, and a million RNG draws,
// over the rank counts and exponents the corpus generator uses.
func TestZipfDrawMatchesBinarySearch(t *testing.T) {
	r := NewRNG(40)
	for _, n := range []int{1, 2, 3, 20, 244, 977, 1955, 6000} {
		for _, s := range []float64{0, 0.8, 1.05, 1.1} {
			z := NewZipf(n, s)
			check := func(u float64) {
				if u < 0 || u >= 1 {
					return
				}
				if got, want := z.rank(u), binarySearchRank(z.cum, u); got != want {
					t.Fatalf("n=%d s=%v u=%v (%#x): rank %d, binary search %d", n, s, u, math.Float64bits(u), got, want)
				}
			}
			for b := 0; b < len(z.guide); b++ {
				u := float64(b) / z.buckets
				if got, want := int(z.guide[b]), binarySearchRank(z.cum, u); got != want {
					t.Fatalf("n=%d s=%v: guide[%d] = %d, binary search %d", n, s, b, got, want)
				}
				check(u)
				check(math.Nextafter(u, -1))
				check(math.Nextafter(u, 2))
			}
			for _, c := range z.cum {
				check(c)
				check(math.Nextafter(c, -1))
				check(math.Nextafter(c, 2))
			}
			check(math.Nextafter(1, 0))
			for i := 0; i < 1_000_000/32; i++ {
				check(r.Float64())
			}
		}
	}
}
