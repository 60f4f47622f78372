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

// Standardize shifts and scales each column of a row-major table of
// dim-wide rows to zero mean and unit variance in place; constant
// columns become all-zero. It returns the per-column means and standard
// deviations.
func Standardize(table []float64, dim int) (mean, std []float64) {
	if len(table) == 0 {
		return nil, nil
	}
	mean = make([]float64, dim)
	std = make([]float64, dim)
	for off := 0; off < len(table); off += dim {
		for j, v := range table[off : off+dim] {
			mean[j] += v
		}
	}
	n := float64(len(table) / dim)
	for j := range mean {
		mean[j] /= n
	}
	for off := 0; off < len(table); off += dim {
		for j, v := range table[off : off+dim] {
			dv := v - mean[j]
			std[j] += float64(dv * dv)
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / n)
	}
	normalize(table, mean, std)
	return mean, std
}

// normalize maps every row of table to (row − mean) / std, zeroing the
// columns whose deviation vanishes.
func normalize(table, mean, std []float64) {
	dim := len(mean)
	for off := 0; off < len(table); off += dim {
		row := table[off : off+dim]
		for j := range row {
			if std[j] > 1e-12 {
				row[j] = (row[j] - mean[j]) / std[j]
			} else {
				row[j] = 0
			}
		}
	}
}

// StandardizeWeighted is Standardize with per-row weights: the mean and
// variance are computed under the weights, then every row is normalised.
// The CRF consumes source features once per *document*, so source feature
// columns must be standardised under document counts — otherwise the few
// prolific sources of a Zipf corpus sit several standard deviations from
// the per-source mean and dominate every clique score.
func StandardizeWeighted(table []float64, dim int, weights []float64) (mean, std []float64) {
	if len(table) == 0 {
		return nil, nil
	}
	if len(weights)*dim != len(table) {
		panic("features: weight length mismatch")
	}
	mean = make([]float64, dim)
	std = make([]float64, dim)
	var wsum float64
	for i, w := range weights {
		if w < 0 {
			panic("features: negative weight")
		}
		wsum += w
		for j, v := range table[i*dim : (i+1)*dim] {
			mean[j] += float64(w * v)
		}
	}
	if wsum == 0 {
		return Standardize(table, dim)
	}
	for j := range mean {
		mean[j] /= wsum
	}
	for i, w := range weights {
		for j, v := range table[i*dim : (i+1)*dim] {
			dv := v - mean[j]
			std[j] += float64(w * dv * dv)
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / wsum)
	}
	normalize(table, mean, std)
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
