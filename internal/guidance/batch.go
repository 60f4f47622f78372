package guidance

import (
	"factcheck/internal/factdb"
)

// Correlation is the matrix M(c, c′) of Eq. 26 over a candidate set: the
// number of sources serving as origin of both claims, normalised to the
// unit interval by the maximum entry. It is symmetric with M(c, c) = 1
// whenever the candidate has any source and the set is non-degenerate.
type Correlation struct {
	claims []int
	m      [][]float64
}

// NewCorrelation builds M over the given claims.
func NewCorrelation(db *factdb.DB, claims []int) *Correlation {
	n := len(claims)
	m := make([][]float64, n)
	maxV := 0.0
	for i := range m {
		m[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := float64(db.SharedSources(claims[i], claims[j]))
			m[i][j] = v
			m[j][i] = v
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV > 0 {
		for i := range m {
			for j := range m[i] {
				m[i][j] /= maxV
			}
		}
	}
	return &Correlation{claims: claims, m: m}
}

// At returns M between the i-th and j-th candidates (matrix indices, not
// claim ids).
func (c *Correlation) At(i, j int) float64 { return c.m[i][j] }

// Importance returns q(c) = Σ_c′ M(c, c′)·IG(c′) for each candidate — the
// propagation weight of §6.2.
func (c *Correlation) Importance(ig []float64) []float64 {
	n := len(c.claims)
	q := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += c.m[i][j] * ig[j]
		}
		q[i] = s
	}
	return q
}

// GreedyBatch selects k candidate indices greedily maximising F, using
// the incremental gain update Δ_{i+1}(c) = Δ_i(c) − 2·IG(c*)·M(c,c*)·IG(c).
// F is monotone submodular for non-negative IG and M, so the result
// carries the (1 − 1/e) guarantee of [49]. Returned indices are in
// selection order.
func GreedyBatch(corr *Correlation, ig, q []float64, w float64, k int) []int {
	n := len(ig)
	if k > n {
		k = n
	}
	delta := make([]float64, n)
	for i := 0; i < n; i++ {
		// Δ_0(c) = w·q(c)·IG(c) − IG(c)²·M(c,c)   (the diagonal term).
		delta[i] = w*q[i]*ig[i] - ig[i]*corr.At(i, i)*ig[i]
	}
	selected := make([]int, 0, k)
	used := make([]bool, n)
	for len(selected) < k {
		best, bestVal := -1, 0.0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if best == -1 || delta[i] > bestVal {
				best, bestVal = i, delta[i]
			}
		}
		if best == -1 {
			break
		}
		used[best] = true
		selected = append(selected, best)
		for i := 0; i < n; i++ {
			if !used[i] {
				delta[i] -= 2 * ig[best] * corr.At(i, best) * ig[i]
			}
		}
	}
	return selected
}

// BatchSelector implements the batched validation of §6.2 as a Strategy
// adapter: it scores a candidate pool with the information-driven gains,
// then greedily assembles the top-k batch with the redundancy penalty.
type BatchSelector struct {
	// W is the positive balance weight of Eq. 27.
	W float64
	// K is the batch size.
	K int
}

// Name implements Strategy.
func (b *BatchSelector) Name() string { return "batch" }

// Rank implements Strategy (returns min(k, K, |pool|) claims).
func (b *BatchSelector) Rank(ctx *Context, k int) []int {
	if b.K < k {
		k = b.K
	}
	return b.SelectBatch(ctx, k)
}

// SelectBatch returns the greedy top-k batch of claim ids in selection
// (descending preference) order.
func (b *BatchSelector) SelectBatch(ctx *Context, k int) []int {
	cand := candidates(ctx)
	if len(cand) == 0 {
		return nil
	}
	ig := InformationGains(ctx, cand)
	// Clamp tiny negative sampling noise: submodularity needs IG ≥ 0.
	for i, g := range ig {
		if g < 0 {
			ig[i] = 0
		}
	}
	corr := NewCorrelation(ctx.DB, cand)
	q := corr.Importance(ig)
	sel := GreedyBatch(corr, ig, q, b.W, k)
	out := make([]int, len(sel))
	for i, idx := range sel {
		out[i] = cand[idx]
	}
	return out
}
