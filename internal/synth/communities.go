package synth

import (
	"fmt"

	"factcheck/internal/factdb"
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
// concatenates the community orders with offset ids. The merged corpus
// carries no standardisation statistics (each community standardised its
// own features), so the streaming featurisation path does not apply.
func GenerateCommunities(p Profile, parts int, seed int64) *Corpus {
	if parts <= 1 {
		return Generate(p, seed)
	}
	sub := CommunityProfile(p, parts)
	db := &factdb.DB{ // every community has exactly sub's counts
		Sources:   make([]factdb.Source, 0, parts*sub.Sources),
		Documents: make([]factdb.Document, 0, parts*sub.Documents),
	}
	merged := &Corpus{}
	var claimOff, srcOff, docOff int
	for i := 0; i < parts; i++ {
		c := Generate(sub, stats.StreamSeed(uint64(seed), uint64(i)))
		for _, s := range c.DB.Sources {
			db.Sources = append(db.Sources, factdb.Source{ID: s.ID + srcOff, Features: s.Features})
		}
		for _, d := range c.DB.Documents {
			refs := make([]factdb.ClaimRef, len(d.Refs))
			for j, r := range d.Refs {
				refs[j] = factdb.ClaimRef{Claim: r.Claim + claimOff, Stance: r.Stance}
			}
			db.Documents = append(db.Documents, factdb.Document{
				ID:       d.ID + docOff,
				Source:   d.Source + srcOff,
				Features: d.Features,
				Refs:     refs,
			})
		}
		merged.Truth = append(merged.Truth, c.Truth...)
		merged.SourceTrust = append(merged.SourceTrust, c.SourceTrust...)
		for _, cl := range c.ClaimOrder {
			merged.ClaimOrder = append(merged.ClaimOrder, cl+claimOff)
		}
		merged.DocText = append(merged.DocText, c.DocText...)
		claimOff += c.DB.NumClaims
		srcOff += len(c.DB.Sources)
		docOff += len(c.DB.Documents)
	}
	db.NumClaims = claimOff
	if err := db.Finalize(); err != nil {
		panic(fmt.Sprintf("synth: merged community database invalid: %v", err))
	}
	prof := p
	prof.Name = fmt.Sprintf("%s/%dc", p.Name, parts)
	prof.Claims = claimOff
	prof.Sources = srcOff
	prof.Documents = docOff
	merged.Profile = prof
	merged.DB = db
	if !p.TextDocuments {
		merged.DocText = nil
	}
	return merged
}
