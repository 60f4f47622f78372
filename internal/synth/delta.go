package synth

import (
	"math"

	"factcheck/internal/factdb"
	"factcheck/internal/stats"
)

// At returns the profile's statistical knobs at a corpus's actual
// totals: st, plus the rows of any deltas posted but not yet counted in
// it. That is the shape GenerateDelta must be given for the delta's
// existing-row references to validate — community partitioning and
// scale floors round a served corpus away from the nominal profile, and
// every applied delta moves it again.
func (p Profile) At(st factdb.Stats, queued ...factdb.Delta) Profile {
	p.Claims, p.Sources, p.Documents = st.Claims, st.Sources, st.Documents
	for i := range queued {
		claims, sources, docs := queued[i].Counts()
		p.Claims, p.Sources, p.Documents = p.Claims+claims, p.Sources+sources, p.Documents+docs
	}
	return p
}

// GenerateDelta builds a position-independent corpus increment from the
// same generative model as Generate: frac scales the profile's row
// counts (a frac of 0.05 yields a delta ~5% the corpus size, with at
// least one claim, source and document). Identical (profile, frac,
// seed) triples yield identical deltas, so a workload user can derive
// its arrivals from its user seed and replay them bit-identically.
//
// The delta references the base corpus only through ids that exist in
// any database generated from the profile — existing-claim and
// existing-source references are drawn from [0, p.Claims) and
// [0, p.Sources) — so the same delta applies at any later shape, no
// matter how many other deltas landed first. A share of the documents
// reference existing rows deliberately: those arrivals merge connected
// components, which is the structural event the incremental maintenance
// path (DB.Extend, engine Grow, gain-cache invalidation) exists for.
//
// Two departures from Generate, both inherent to streaming arrival:
// features are emitted on an approximate z-scale (arrivals cannot be
// re-standardised against a corpus they have not joined yet), and new
// sources carry centrality proxies instead of PageRank/HITS scores (a
// cold source has no settled place in the hyperlink graph). Both keep
// the property the engine actually depends on — informative-but-noisy
// correlation with the latent variables.
//
// Truth is filled with the ground-truth credibility of the delta's new
// claims, riding inside the delta as factdb.Delta.Truth documents.
func GenerateDelta(p Profile, frac float64, seed int64) factdb.Delta {
	if frac <= 0 {
		panic("synth: non-positive delta fraction")
	}
	r := stats.NewRNG(seed)
	nC := maxInt(1, int(math.Round(float64(p.Claims)*frac)))
	nS := maxInt(1, int(math.Round(float64(p.Sources)*frac)))
	nD := maxInt(nC, int(math.Round(float64(p.Documents)*frac)))

	truth := make([]bool, nC)
	for c := range truth {
		truth[c] = r.Bernoulli(p.CredibleRatio)
	}
	hard := make([]bool, nC)
	for c := range hard {
		hard[c] = r.Bernoulli(p.HardClaimRatio)
	}
	trust := make([]float64, nS)
	for s := range trust {
		trust[s] = r.Beta(p.TrustAlpha, p.TrustBeta)
	}

	// New sources: z-scale stand-ins for the base corpus's standardised
	// feature channels. Centrality proxies correlate with τ exactly as
	// PageRank/HITS do in Generate (trustworthy sources attract links);
	// activity sits below zero because an arriving source has few
	// documents yet; the direct trust probe and noise channel match
	// Generate's construction.
	trustMean := p.TrustAlpha / (p.TrustAlpha + p.TrustBeta)
	d := factdb.Delta{NewClaims: nC, Truth: truth}
	for s := 0; s < nS; s++ {
		d.Sources = append(d.Sources, factdb.DeltaSource{Features: []float64{
			2.0*(trust[s]-trustMean) + 0.6*r.NormFloat64(),
			2.0*(trust[s]-trustMean) + 0.8*r.NormFloat64(),
			-0.5 + 0.5*r.NormFloat64(),
			trust[s] + 0.35*r.NormFloat64(),
			r.NormFloat64(),
		}})
	}

	// Documents: each new claim gets one guaranteed document (the same
	// no-orphan coverage Generate provides), the remainder follow the
	// profile's Zipf skews. A slice of the extra documents deliberately
	// cite base-corpus claims and sources so arrivals attach to — and
	// merge — existing components.
	const (
		existingClaimShare  = 0.30
		existingSourceShare = 0.25
	)
	srcZipf := stats.NewZipf(nS, p.SourceZipf)
	clmZipf := stats.NewZipf(nC, p.ClaimZipf)
	baseSrcZipf := stats.NewZipf(p.Sources, p.SourceZipf)
	baseClmZipf := stats.NewZipf(p.Claims, p.ClaimZipf)
	nDocFeat := len(p.DocSignal) + p.DocNoiseChannels
	for i := 0; i < nD; i++ {
		src := -(srcZipf.Draw(r) + 1) // delta source, signed addressing
		srcTrust := trust[-src-1]
		if i >= nC && r.Float64() < existingSourceShare {
			src = baseSrcZipf.Draw(r)
			// The base source's latent τ is unknown here; a draw from the
			// same Beta prior is the correct marginal.
			srcTrust = r.Beta(p.TrustAlpha, p.TrustBeta)
		}
		claim := -(i + 1) // coverage guarantee for i < nC
		claimTruth, claimHard := true, false
		if i < nC {
			claimTruth, claimHard = truth[i], hard[i]
		} else if r.Float64() < existingClaimShare {
			claim = baseClmZipf.Draw(r)
			claimTruth = r.Bernoulli(p.CredibleRatio) // marginal belief
			claimHard = r.Bernoulli(p.HardClaimRatio)
		} else {
			j := clmZipf.Draw(r)
			claim = -(j + 1)
			claimTruth, claimHard = truth[j], hard[j]
		}

		pCorrect := clampProb(srcTrust)
		if claimHard {
			pCorrect = 0.5
		}
		correct := r.Bernoulli(pCorrect)
		st := factdb.Refute
		if claimTruth == correct {
			st = factdb.Support
		}
		sign := -1.0
		if correct {
			sign = 1.0
		}
		if claimHard {
			sign = 0
		}
		feats := make([]float64, nDocFeat)
		for k, mu := range p.DocSignal {
			// Divide by the channel's analytic σ so the delta lands on
			// the same z-scale the base corpus was standardised to.
			feats[k] = (mu*sign + p.FeatureNoise*r.NormFloat64()) /
				math.Sqrt(mu*mu+p.FeatureNoise*p.FeatureNoise)
		}
		for k := len(p.DocSignal); k < nDocFeat; k++ {
			feats[k] = r.NormFloat64()
		}
		d.Documents = append(d.Documents, factdb.DeltaDocument{
			Source:   src,
			Features: feats,
			Refs:     []factdb.DeltaRef{{Claim: claim, Stance: st}},
		})
	}
	return d
}
