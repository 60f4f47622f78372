// Package stats provides the statistical toolkit used throughout the fact
// checking framework: deterministic random number streams, correlation
// coefficients (Pearson's r, Kendall's tau-b), histograms, quantile and box
// plot summaries, and small numeric helpers.
//
// Everything in this package is deterministic given a seed, which keeps the
// experiment harness reproducible run to run.
package stats

import (
	"math"

	"factcheck/internal/wire"
)

// RNG is a small, fast, deterministic pseudo random number generator
// (splitmix64 seeded xorshift128+). It is not safe for concurrent use; give
// each goroutine its own stream (see StreamSeed).
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded from seed. Two generators with the same
// seed produce identical streams.
func NewRNG(seed int64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator in place to the stream NewRNG(seed) would
// produce, without allocating. Worker pools reseed long-lived generators
// per task so results are independent of task-to-worker assignment.
func (r *RNG) Reseed(seed int64) {
	// SplitMix64 to spread the seed over both words, avoiding the all-zero
	// state that xorshift cannot leave.
	x := uint64(seed)
	for i := 0; i < 2; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if i == 0 {
			r.s0 = z
		} else {
			r.s1 = z
		}
	}
	if r.s0 == 0 && r.s1 == 0 {
		r.s1 = 1
	}
}

// AppendImage appends the generator's state — its two words — to b;
// ReadImage resumes the stream from them. Together they carry a stream
// position through a session state image (DESIGN.md §10).
func (r *RNG) AppendImage(b []byte) []byte {
	return wire.AppendU64(wire.AppendU64(b, r.s0), r.s1)
}

// ReadImage restores the state AppendImage wrote. The all-zero state,
// which xorshift can neither reach nor leave, is rejected.
func (r *RNG) ReadImage(rd *wire.Reader) {
	r.s0, r.s1 = rd.U64(), rd.U64()
	if rd.Err() == nil && r.s0 == 0 && r.s1 == 0 {
		rd.Fail(wire.ErrValue)
	}
}

// StreamSeed derives a deterministic child seed for stream id from a base
// draw. It does not advance any generator, so a set of
// parallel workers can seed per-task streams from one shared base without
// coordination — the scheme that keeps sharded sampling bit-identical
// regardless of worker count or task scheduling order.
func StreamSeed(base uint64, id uint64) int64 {
	z := base + 0x9e3779b97f4a7c15*(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box-Muller, polar form).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Beta returns a Beta(alpha, beta) variate using Johnk's/gamma composition.
func (r *RNG) Beta(alpha, beta float64) float64 {
	x := r.Gamma(alpha)
	y := r.Gamma(beta)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Gamma returns a Gamma(shape, 1) variate using Marsaglia-Tsang, valid for
// any positive shape.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("stats: Gamma with non-positive shape")
	}
	if shape < 1 {
		// Boost via Gamma(shape+1) * U^(1/shape).
		return r.Gamma(shape+1) * math.Pow(r.Float64()+1e-300, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u+1e-300) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf draws integers in [0, n) with probability proportional to
// 1/(rank+1)^s using precomputed cumulative weights. Construct once via
// NewZipf and reuse.
type Zipf struct {
	cum []float64
	// guide[b] is the rank a draw of u = b/buckets returns. A draw
	// whose u lies in [b, b+1)/buckets returns a rank in
	// [guide[b], guide[b+1]], so its search starts from that range:
	// with a bucket per rank it spans a rank or two where the weights
	// are large and a few in the tail. The table takes no more bytes
	// than cum and is filled without a power, so it costs little
	// beside cum when a law serves only a few draws (a corpus delta's).
	guide   []int32
	buckets float64 // len(guide) − 1, a power of two ≥ n
}

// NewZipf builds a Zipf distribution over n ranks with exponent s >= 0.
// s = 0 is uniform; larger s is more skewed.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf with non-positive n")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1 // guard against rounding
	buckets := 1
	for buckets < n {
		buckets *= 2
	}
	// guide[b] is the first rank whose weight reaches b/buckets, the
	// rank searching cum for it returns: rank i takes the buckets
	// b ≤ cum[i]·buckets that no earlier rank took. The product is
	// exact, so its floor is the last of them.
	guide := make([]int32, buckets+1)
	b := 0
	for i, c := range cum[:n-1] {
		for last := int(c * float64(buckets)); b <= last; b++ {
			guide[b] = int32(i)
		}
	}
	for ; b <= buckets; b++ {
		guide[b] = int32(n - 1)
	}
	return &Zipf{cum: cum, guide: guide, buckets: float64(buckets)}
}

// Draw samples a rank in [0, n).
func (z *Zipf) Draw(r *RNG) int { return z.rank(r.Float64()) }

// rank returns the rank a uniform draw u in [0, 1) selects: the first
// whose cumulative weight reaches u, or the last. The ranks that
// searching all of cum could return for u are the monotone boundary
// between ranks below u and ranks that reach it, so searching the
// guide range that holds it returns the same rank.
func (z *Zipf) rank(u float64) int {
	b := int(u * z.buckets) // u's top bits: the product is exact
	lo, hi := int(z.guide[b]), int(z.guide[b+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
