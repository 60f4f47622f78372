// Package synth generates synthetic fact-checking corpora with the shape
// of the three datasets of §8.1 (Wikipedia hoaxes, healthcare forum,
// Snopes). The real corpora are MPI-INF downloads that are unavailable
// offline; the generator reproduces the statistics the framework's
// behaviour depends on — source/document/claim counts, Zipf-skewed degree
// distributions, latent source trustworthiness, stance noise, and feature
// vectors that are informative-but-noisy correlates of the latent
// variables. See DESIGN.md §3 for the substitution argument.
//
// Generative model:
//
//	truth(c)   ~ Bernoulli(CredibleRatio)
//	τ(s)       ~ Beta(TrustAlpha, TrustBeta)          source trustworthiness
//	doc d of s references claim c with the *correct* stance
//	           (support if truth(c), refute otherwise) w.p. τ(s)
//	doc features: informative channels μ_k·(2·correct−1) + σ·N(0,1),
//	           plus pure-noise channels
//	source features: PageRank + HITS authority over a hyperlink graph
//	           whose in-link probability grows with τ(t), activity
//	           log1p(#docs), a noisy direct trust probe, and one noise
//	           channel
//
// All randomness flows from a single seed, making corpora reproducible.
package synth

import (
	"fmt"
	"math"

	"factcheck/internal/factdb"
	"factcheck/internal/features"
	"factcheck/internal/graph"
	"factcheck/internal/stats"
)

// Profile parameterises a corpus family.
type Profile struct {
	// Name identifies the dataset in experiment output.
	Name string
	// Sources, Documents and Claims are the corpus sizes (§8.1).
	Sources, Documents, Claims int
	// CredibleRatio is the fraction of credible claims.
	CredibleRatio float64
	// TrustAlpha/TrustBeta shape the Beta distribution of latent source
	// trustworthiness.
	TrustAlpha, TrustBeta float64
	// SourceZipf / ClaimZipf control the degree skew of document
	// assignment (larger = more skewed).
	SourceZipf, ClaimZipf float64
	// DocSignal lists the strength of each informative document feature
	// channel.
	DocSignal []float64
	// DocNoiseChannels is the number of pure-noise document features.
	DocNoiseChannels int
	// FeatureNoise is the σ of the informative channels' Gaussian noise.
	FeatureNoise float64
	// HardClaimRatio is the fraction of genuinely ambiguous claims — the
	// "common-sense facts that cannot easily be inferred" of §1 that
	// make manual validation necessary. Hard claims carry no language
	// signal (their documents' informative features are pure noise) and
	// sources split on them (stance correctness is a coin flip
	// regardless of trustworthiness), so only direct validation settles
	// them. Their share controls how much manual effort a corpus
	// fundamentally requires.
	HardClaimRatio float64
	// LinksPerSource is the mean out-degree of the hyperlink graph.
	LinksPerSource int
}

// The three corpora of §8.1 at their published sizes.
var (
	Wikipedia = Profile{
		Name: "wiki", Sources: 1955, Documents: 3228, Claims: 157,
		CredibleRatio: 0.5, TrustAlpha: 3.5, TrustBeta: 2,
		SourceZipf: 1.05, ClaimZipf: 0.8,
		DocSignal: []float64{0.6, 0.4, 0.25}, DocNoiseChannels: 2,
		FeatureNoise: 1.5, HardClaimRatio: 0.3, LinksPerSource: 3,
	}
	Health = Profile{
		Name: "health", Sources: 11206, Documents: 48083, Claims: 529,
		CredibleRatio: 0.55, TrustAlpha: 2.8, TrustBeta: 2,
		SourceZipf: 1.1, ClaimZipf: 0.85,
		DocSignal: []float64{0.5, 0.35, 0.2}, DocNoiseChannels: 2,
		FeatureNoise: 1.9, HardClaimRatio: 0.35, LinksPerSource: 3,
	}
	Snopes = Profile{
		Name: "snopes", Sources: 23260, Documents: 80421, Claims: 4856,
		CredibleRatio: 0.4, TrustAlpha: 2.8, TrustBeta: 2,
		SourceZipf: 1.1, ClaimZipf: 0.8,
		DocSignal: []float64{0.55, 0.4, 0.22}, DocNoiseChannels: 2,
		FeatureNoise: 1.7, HardClaimRatio: 0.32, LinksPerSource: 3,
	}
)

// Profiles returns the three §8.1 corpora in paper order.
func Profiles() []Profile { return []Profile{Wikipedia, Health, Snopes} }

// ByName returns the profile with the given name.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("synth: unknown profile %q", name)
}

// Scaled returns a proportionally shrunk (or grown) profile that keeps
// the degree skew and noise; the experiment harness uses small scales so
// full sweeps stay fast (DESIGN.md §5).
func (p Profile) Scaled(f float64) Profile {
	if f <= 0 {
		panic("synth: non-positive scale")
	}
	q := p
	q.Claims = maxInt(8, int(math.Round(float64(p.Claims)*f)))
	q.Documents = maxInt(2*q.Claims, int(math.Round(float64(p.Documents)*f)))
	q.Sources = maxInt(5, int(math.Round(float64(p.Sources)*f)))
	if f != 1 {
		q.Name = fmt.Sprintf("%s@%.3g", p.Name, f)
	}
	return q
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Corpus is a generated probabilistic fact database with its hidden
// ground truth (used to simulate users, exactly as the paper does) and
// the latent variables behind the features.
type Corpus struct {
	Profile Profile
	DB      *factdb.DB
	// Truth is the correct credibility assignment g*.
	Truth []bool
	// SourceTrust is the latent trustworthiness τ(s).
	SourceTrust []float64
	// ClaimOrder is the posting order of claims, used by the streaming
	// experiments (§8.8); ClaimOrder[i] is the i-th claim to arrive.
	ClaimOrder []int
}

// Validate reports whether the profile describes a generable, non-empty
// corpus; the error names the first violated requirement.
func (p Profile) Validate() error {
	switch {
	case p.Claims <= 0:
		return fmt.Errorf("synth: profile %q is empty (%d claims)", p.Name, p.Claims)
	case p.Sources <= 0:
		return fmt.Errorf("synth: profile %q has no sources", p.Name)
	case p.Documents < p.Claims:
		return fmt.Errorf("synth: profile %q needs at least one document per claim (%d documents < %d claims)",
			p.Name, p.Documents, p.Claims)
	case p.CredibleRatio < 0 || p.CredibleRatio > 1:
		return fmt.Errorf("synth: profile %q has credible ratio %v outside [0,1]", p.Name, p.CredibleRatio)
	}
	return nil
}

// GenerateChecked is Generate with input validation: it rejects an empty
// or malformed profile with an error instead of panicking, for callers
// (e.g. a corpus-serving API) that must survive bad input.
func GenerateChecked(p Profile, seed int64) (*Corpus, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return Generate(p, seed), nil
}

// Generate builds a corpus from the profile; identical (profile, seed)
// pairs yield identical corpora.
func Generate(p Profile, seed int64) *Corpus {
	t := newTables(p, 1)
	t.generate(0, seed)
	return t.corpus(p)
}

// srcFeatDim is the number of source feature channels generate emits.
const srcFeatDim = 5

// tables is a corpus under construction: the feature tables and clique
// list of `parts` communities of profile p, allocated once at their
// final size and handed to factdb as they are. Community i owns the
// i-th range of every slice, so generating it is writing that range.
type tables struct {
	p       Profile // one community
	docDim  int
	srcFeat []float64
	docFeat []float64
	cliques []factdb.Clique // one per document, in document order
	truth   []bool
	trust   []float64
	order   []int
	// The document endpoints' and the hyperlinks' Zipf laws, built once
	// for every community: all of them have p's counts.
	srcZipf, clmZipf, popular *stats.Zipf
}

func newTables(p Profile, parts int) *tables {
	if p.Documents < p.Claims {
		panic("synth: need at least one document per claim")
	}
	t := &tables{p: p, docDim: len(p.DocSignal) + p.DocNoiseChannels}
	t.srcFeat = make([]float64, parts*p.Sources*srcFeatDim)
	t.docFeat = make([]float64, parts*p.Documents*t.docDim)
	t.cliques = make([]factdb.Clique, parts*p.Documents)
	t.truth = make([]bool, parts*p.Claims)
	t.trust = make([]float64, parts*p.Sources)
	t.order = make([]int, parts*p.Claims)
	t.srcZipf = stats.NewZipf(p.Sources, p.SourceZipf)
	t.clmZipf = stats.NewZipf(p.Claims, p.ClaimZipf)
	t.popular = stats.NewZipf(p.Sources, 0.8)
	return t
}

// generate draws community i from its own seed into its range of the
// tables, with ids offset into the merged id spaces.
func (t *tables) generate(i int, seed int64) {
	p := t.p
	r := stats.NewRNG(seed)
	nS, nD, nC := p.Sources, p.Documents, p.Claims
	claimOff, srcOff, docOff := i*nC, i*nS, i*nD

	truth := t.truth[claimOff : claimOff+nC]
	for c := range truth {
		truth[c] = r.Bernoulli(p.CredibleRatio)
	}
	hard := make([]bool, nC)
	for c := range hard {
		hard[c] = r.Bernoulli(p.HardClaimRatio)
	}
	trust := t.trust[srcOff : srcOff+nS]
	for s := range trust {
		trust[s] = r.Beta(p.TrustAlpha, p.TrustBeta)
	}

	// Assign documents: each claim gets one guaranteed document; the
	// remainder follow Zipf-skewed popularity on both sides. A document
	// references one claim, so document d is clique d.
	cliques := t.cliques[docOff : docOff+nD]
	docCount := make([]int, nS)
	for d := range cliques {
		s, c := t.srcZipf.Draw(r), d // coverage guarantee
		if d >= nC {
			c = t.clmZipf.Draw(r)
		}
		docCount[s]++
		cliques[d] = factdb.Clique{Claim: int32(claimOff + c), Doc: int32(docOff + d), Source: int32(srcOff + s)}
	}

	// Stances and document features.
	docFeat := t.docFeat[docOff*t.docDim : (docOff+nD)*t.docDim]
	for d := range cliques {
		q := &cliques[d]
		s, c := int(q.Source)-srcOff, int(q.Claim)-claimOff
		pCorrect := clampProb(trust[s])
		if hard[c] {
			pCorrect = 0.5 // sources split on genuinely ambiguous claims
		}
		correct := r.Bernoulli(pCorrect)
		if truth[c] == correct {
			q.Stance = factdb.Support
		} else {
			q.Stance = factdb.Refute
		}
		sign := -1.0
		if correct {
			sign = 1.0
		}
		if hard[c] {
			sign = 0 // hard claims: language carries no signal
		}
		f := docFeat[d*t.docDim : (d+1)*t.docDim]
		for k, mu := range p.DocSignal {
			f[k] = mu*sign + p.FeatureNoise*r.NormFloat64()
		}
		for k := len(p.DocSignal); k < len(f); k++ {
			f[k] = r.NormFloat64()
		}
	}

	// Hyperlink graph: sources link preferentially to trustworthy,
	// popular targets; centrality then correlates with τ.
	g := graph.NewDirected(nS)
	for s := 0; s < nS; s++ {
		links := 1 + r.Intn(2*p.LinksPerSource)
		for l := 0; l < links; l++ {
			target := t.popular.Draw(r)
			// Rejection step: accept high-trust targets more often.
			if r.Float64() < 0.25+0.75*trust[target] {
				g.AddEdge(s, target)
			}
		}
	}
	cent := features.ComputeCentrality(g)
	activity := features.Activity(docCount)
	srcFeat := t.srcFeat[srcOff*srcFeatDim : (srcOff+nS)*srcFeatDim]
	for s := 0; s < nS; s++ {
		f := srcFeat[s*srcFeatDim : (s+1)*srcFeatDim]
		f[0] = cent.PageRank[s]
		f[1] = cent.Authority[s]
		f[2] = activity[s]
		f[3] = trust[s] + 0.35*r.NormFloat64() // noisy direct probe (age/profile heuristics)
		f[4] = r.NormFloat64()                 // pure noise channel
	}

	// Standardise features for optimizer conditioning, each community
	// on its own. Source features are consumed once per document, so
	// they are standardised under document counts (see
	// features.StandardizeWeighted).
	features.Standardize(docFeat, t.docDim)
	srcWeights := make([]float64, nS)
	for s, n := range docCount {
		srcWeights[s] = float64(n)
	}
	features.StandardizeWeighted(srcFeat, srcFeatDim, srcWeights)

	for k, c := range r.Perm(nC) {
		t.order[claimOff+k] = claimOff + c
	}
}

// corpus hands the filled tables to factdb and wraps the result.
func (t *tables) corpus(prof Profile) *Corpus {
	db, err := factdb.FromTables(len(t.truth), len(t.trust), t.srcFeat, t.docFeat, t.cliques)
	if err != nil {
		panic(fmt.Sprintf("synth: generated invalid database: %v", err))
	}
	return &Corpus{
		Profile:     prof,
		DB:          db,
		Truth:       t.truth,
		SourceTrust: t.trust,
		ClaimOrder:  t.order,
	}
}

func clampProb(p float64) float64 {
	if p < 0.05 {
		return 0.05
	}
	if p > 0.95 {
		return 0.95
	}
	return p
}
