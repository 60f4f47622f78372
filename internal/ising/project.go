package ising

import (
	"math"

	"factcheck/internal/crf"
	"factcheck/internal/factdb"
)

// maxPairSourceDegree caps the per-source pairwise expansion of the exact
// projection; prolific sources would otherwise contribute O(deg²) edges.
// The cap only affects the "origin" (exact-entropy) variant benchmarked
// in Fig. 2; the scalable variant (entropy.Approx) has no such term.
const maxPairSourceDegree = 64

// Project builds the pairwise binary MRF whose joint distribution matches
// the Gibbs conditionals of the chain (see gibbs.Chain.LogOdds): unary
// fields collect the stance-signed clique base scores, and claims sharing
// a source are coupled with an agreement weight proportional to the trust
// coupling θ_trust. Labelled claims are folded into the unary fields of
// their neighbours, so the MRF ranges over unlabelled claims only.
func Project(m *crf.Model, state *factdb.State) *MRF {
	db, rows := m.DB, m.DB.Rows()
	base := m.BaseScores()
	trustW := m.TrustWeight()

	// Node index over unlabelled claims.
	idx := make([]int, db.NumClaims)
	var nodes []int
	for c := 0; c < db.NumClaims; c++ {
		if state.Labeled(c) {
			idx[c] = -1
		} else {
			idx[c] = len(nodes)
			nodes = append(nodes, c)
		}
	}
	mrf := New(len(nodes))

	// Unary fields: average stance-signed base scores scaled by the
	// odds gain, matching gibbs.Chain.LogOdds.
	for _, c := range nodes {
		th := 0.0
		cliques := rows.ClaimCliques(c)
		for _, ci := range cliques {
			cl := rows.Cliques[ci]
			th += cl.Stance.Sign() * base[ci]
		}
		if n := len(cliques); n > 0 {
			th = crf.OddsGain * th / float64(n)
		}
		mrf.Theta[idx[c]] = th
	}
	if trustW == 0 {
		return mrf
	}

	// signedDeg[s][c] = (#support − #refute) cliques of claim c from
	// source s, accumulated in one pass over the cliques.
	totals := make([]int, len(db.Sources))
	signedDeg := make([]map[int32]float64, len(db.Sources))
	for _, cl := range rows.Cliques {
		totals[cl.Source]++
		if signedDeg[cl.Source] == nil {
			signedDeg[cl.Source] = make(map[int32]float64)
		}
		signedDeg[cl.Source][cl.Claim] += cl.Stance.Sign()
	}
	type pairKey struct{ a, b int }
	acc := make(map[pairKey]float64)
	for s := range db.Sources {
		claims := rows.SourceClaims(s)
		if len(claims) < 2 {
			continue
		}
		if len(claims) > maxPairSourceDegree {
			claims = claims[:maxPairSourceDegree]
		}
		total := totals[s]
		sd := signedDeg[s]
		if total < 2 {
			continue
		}
		norm := trustW / float64(total-1)
		for i := 0; i < len(claims); i++ {
			for j := i + 1; j < len(claims); j++ {
				a, b := int(claims[i]), int(claims[j])
				na, nb := len(rows.ClaimCliques(a)), len(rows.ClaimCliques(b))
				if na == 0 || nb == 0 {
					continue
				}
				// Scale like the averaged conditionals (geometric mean
				// of the two claims' clique counts).
				scale := crf.OddsGain / math.Sqrt(float64(na)*float64(nb))
				w := scale * norm * sd[claims[i]] * sd[claims[j]]
				if w == 0 {
					continue
				}
				switch {
				case idx[a] >= 0 && idx[b] >= 0:
					k := pairKey{idx[a], idx[b]}
					if k.a > k.b {
						k.a, k.b = k.b, k.a
					}
					acc[k] += w
				case idx[a] >= 0:
					// b is labelled: fold into a's field.
					if v, _ := state.Label(b); v {
						mrf.Theta[idx[a]] += w
					} else {
						mrf.Theta[idx[a]] -= w
					}
				case idx[b] >= 0:
					if v, _ := state.Label(a); v {
						mrf.Theta[idx[b]] += w
					} else {
						mrf.Theta[idx[b]] -= w
					}
				}
			}
		}
	}
	for k, w := range acc {
		mrf.AddEdge(k.a, k.b, w)
	}
	return mrf
}

// Exact returns the Eq. 12 entropy H_C(Q) of the projected model,
// computed exactly when the projection is a forest and via loopy BP
// otherwise (the second return reports exactness).
func Exact(m *crf.Model, state *factdb.State) (float64, bool) {
	mrf := Project(m, state)
	inf := mrf.Infer(0)
	return inf.Entropy, inf.Exact
}
