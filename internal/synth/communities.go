package synth

import (
	"fmt"

	"factcheck/internal/stats"
)

// CommunityProfile returns the per-community sub-profile a
// GenerateCommunities call with these arguments generates `parts` copies
// of, so callers (e.g. admission control) can size the merged corpus
// before generating anything.
func CommunityProfile(p Profile, parts int) Profile {
	if parts <= 1 {
		return p
	}
	return p.Scaled(1 / float64(parts))
}

// GenerateCommunities generates a corpus of `parts` independent
// communities, each an unscaled-shape replica of profile p at 1/parts
// size, merged into one fact database over disjoint claim, source and
// document id spaces. The §8.1 generator draws document endpoints from
// global Zipf popularity, which makes its corpora (nearly) fully
// connected; real multi-topic corpora instead decompose into many
// weakly-interacting communities, and it is exactly that component
// structure the §5.1 graph-partition machinery — component-sharded
// E-steps, component-restricted what-if scoring, and the per-answer
// dirty-component path — feeds on. The merged database therefore has at
// least `parts` connected components (a community may itself split
// further).
//
// Identical (profile, parts, seed) triples yield identical corpora; each
// community draws from its own StreamSeed-derived stream. ClaimOrder
// concatenates the community orders with offset ids. Every community
// writes its own range of one set of tables (see tables), standardising
// its own features.
func GenerateCommunities(p Profile, parts int, seed int64) *Corpus {
	if parts <= 1 {
		return Generate(p, seed)
	}
	sub := CommunityProfile(p, parts)
	t := newTables(sub, parts) // every community has exactly sub's counts
	for i := 0; i < parts; i++ {
		t.generate(i, stats.StreamSeed(uint64(seed), uint64(i)))
	}
	prof := p
	prof.Name = fmt.Sprintf("%s/%dc", p.Name, parts)
	prof.Claims = parts * sub.Claims
	prof.Sources = parts * sub.Sources
	prof.Documents = parts * sub.Documents
	return t.corpus(prof)
}
