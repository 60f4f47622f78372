// Package features derives the source and document feature vectors of
// §8.1. For sources that are websites the paper uses centrality scores
// (PageRank, HITS); for authors it uses personal information and activity
// logs; document language quality is captured by stylistic and affective
// linguistic indicators [52]. This package computes real PageRank/HITS
// centrality over a (synthetic) hyperlink graph, activity statistics, and
// standardisation utilities that keep the M-step well conditioned.
package features

import (
	"math"

	"factcheck/internal/graph"
)

// Standardize shifts and scales each column of rows to zero mean and unit
// variance in place; constant columns become all-zero. It returns the
// per-column means and standard deviations so streaming arrivals can be
// normalised consistently.
func Standardize(rows [][]float64) (mean, std []float64) {
	if len(rows) == 0 {
		return nil, nil
	}
	d := len(rows[0])
	mean = make([]float64, d)
	std = make([]float64, d)
	for _, r := range rows {
		for j, v := range r {
			mean[j] += v
		}
	}
	n := float64(len(rows))
	for j := range mean {
		mean[j] /= n
	}
	for _, r := range rows {
		for j, v := range r {
			dv := v - mean[j]
			std[j] += dv * dv
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / n)
	}
	for _, r := range rows {
		for j := range r {
			if std[j] > 1e-12 {
				r[j] = (r[j] - mean[j]) / std[j]
			} else {
				r[j] = 0
			}
		}
	}
	return mean, std
}

// StandardizeWeighted is Standardize with per-row weights: the mean and
// variance are computed under the weights, then every row is normalised.
// The CRF consumes source features once per *document*, so source feature
// columns must be standardised under document counts — otherwise the few
// prolific sources of a Zipf corpus sit several standard deviations from
// the per-source mean and dominate every clique score.
func StandardizeWeighted(rows [][]float64, weights []float64) (mean, std []float64) {
	if len(rows) == 0 {
		return nil, nil
	}
	if len(weights) != len(rows) {
		panic("features: weight length mismatch")
	}
	d := len(rows[0])
	mean = make([]float64, d)
	std = make([]float64, d)
	var wsum float64
	for i, r := range rows {
		w := weights[i]
		if w < 0 {
			panic("features: negative weight")
		}
		wsum += w
		for j, v := range r {
			mean[j] += w * v
		}
	}
	if wsum == 0 {
		return Standardize(rows)
	}
	for j := range mean {
		mean[j] /= wsum
	}
	for i, r := range rows {
		w := weights[i]
		for j, v := range r {
			dv := v - mean[j]
			std[j] += w * dv * dv
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / wsum)
	}
	for _, r := range rows {
		for j := range r {
			if std[j] > 1e-12 {
				r[j] = (r[j] - mean[j]) / std[j]
			} else {
				r[j] = 0
			}
		}
	}
	return mean, std
}

// Centrality bundles the graph-derived source features.
type Centrality struct {
	PageRank  []float64
	Authority []float64
	Hub       []float64
}

// ComputeCentrality runs PageRank (damping 0.85) and HITS over the
// hyperlink graph. PageRank values are rescaled by the node count so they
// are O(1) regardless of graph size, then log-transformed to tame the
// heavy tail; authority/hub scores are used as returned (unit norm).
func ComputeCentrality(g *graph.Directed) Centrality {
	pr := g.PageRank(0.85, 60, 1e-10)
	hubs, auth := g.HITS(30)
	n := float64(g.N())
	out := Centrality{
		PageRank:  make([]float64, g.N()),
		Authority: auth,
		Hub:       hubs,
	}
	for i, p := range pr {
		out.PageRank[i] = math.Log1p(p * n)
	}
	return out
}

// Activity returns log1p of the per-source document counts — the
// "activity log" feature of author sources.
func Activity(docCounts []int) []float64 {
	out := make([]float64, len(docCounts))
	for i, c := range docCounts {
		out[i] = math.Log1p(float64(c))
	}
	return out
}
