package core

import (
	"factcheck/internal/factdb"
	"factcheck/internal/stats"
)

// ingestStream separates the per-ingest detached RNG universe from
// every other StreamSeed consumer of the session seed.
const ingestStream = 0x696e67657374 // "ingest"

// IngestResult summarises what one corpus delta changed.
type IngestResult struct {
	// ClaimBase/SourceBase/DocBase are the first global ids assigned to
	// the delta's rows.
	ClaimBase  int `json:"claimBase"`
	SourceBase int `json:"sourceBase"`
	DocBase    int `json:"docBase"`
	// NewClaims/NewSources/NewDocuments are the delta's row counts.
	NewClaims    int `json:"newClaims"`
	NewSources   int `json:"newSources"`
	NewDocuments int `json:"newDocuments"`
	// DirtyComponents counts the connected components whose structure
	// or evidence the delta changed; MergedComponents counts components
	// absorbed into a merge winner.
	DirtyComponents  int `json:"dirtyComponents"`
	MergedComponents int `json:"mergedComponents"`
	// FullSweep reports that the delta was absorbed by a full EM sweep
	// rather than the frozen-θ dirty-component refresh (warm-up, the
	// FullSweepEvery cadence, or a cache-less configuration).
	FullSweep bool `json:"fullSweep"`
}

// Ingest applies a corpus delta to the live session: the database grows
// in place with incremental connected-component maintenance
// (factdb.DB.Extend), the probabilistic state and the warm Gibbs chain
// grow to cover the new claims, and inference is refreshed
// incrementally — under frozen θ, only the components the delta dirtied
// are resampled, exactly like the per-answer dirty-component path —
// with a full EM sweep on the same FullSweepEvery cadence answers use.
// The arrival is recorded in the transcript (Elicitation.Ingest), so a
// snapshot taken afterwards replays the delta at the same position and
// the grown session stays a pure function of (database, options, seed,
// transcript). The session keeps nothing of delta but its Truth slice
// once Ingest returns: the rows are in the tables, and the record is
// rebuilt from there whenever the transcript is read (logEntry).
//
// New-claim chain values draw from a detached stream seeded by the
// session seed and the ingest ordinal — never from the session RNG — so
// ingestion does not perturb the RNG draws of surrounding elicitations.
//
// The delta is validated before any mutation: on error the session is
// unchanged. Ingesting into a finished session is allowed and
// un-finishes it — the new claims are unlabelled.
func (s *Session) Ingest(delta factdb.Delta) (IngestResult, error) {
	if s.closed {
		return IngestResult{}, ErrClosed
	}
	ext, err := s.DB.Extend(delta)
	if err != nil {
		return IngestResult{}, err
	}
	res := IngestResult{
		ClaimBase:        ext.ClaimBase,
		SourceBase:       ext.SourceBase,
		DocBase:          ext.DocBase,
		NewClaims:        delta.NewClaims,
		NewSources:       len(delta.Sources),
		NewDocuments:     len(delta.Documents),
		DirtyComponents:  len(ext.Dirty),
		MergedComponents: len(ext.Removed),
	}
	s.State.Grow(delta.NewClaims)
	rng := stats.NewRNG(stats.StreamSeed(
		uint64(stats.StreamSeed(uint64(s.opts.Seed), ingestStream)), uint64(s.ingests)))
	s.ingests++
	s.Engine.Grow(rng)

	// Record the arrival before inference: the transcript position is
	// the delta's replay position, and inference below is a pure
	// function of the post-extend state.
	s.record(Elicitation{Ingest: &delta}, ext.Span)
	if s.pendingOK {
		// A ranking was computed this iteration but no Step consumed it;
		// the delta makes it stale, and a pending skip of its head goes
		// with it (invalidatePending). Rewind the session RNG to the state
		// that round started from, so re-ranking over the grown corpus
		// draws the very values the aborted round drew — a transcript
		// replay ranks exactly once, after applying this record, and the
		// live session must consume the stream identically.
		*s.rng = s.rngAtRank
	}
	s.invalidatePending()

	// Refresh inference. Epochs move first (InvalidateMerged jumps the
	// dirtied components past every absorbed component's epoch), then
	// the cadence answers use (sweepDue) decides between the frozen-θ
	// dirty-component refresh and a full EM sweep. Removed
	// components are bumped too: nothing maps to them any more, but a
	// dead slot must never offer a matching epoch again.
	if s.gains != nil {
		s.gains.InvalidateMerged(append(append([]int(nil), ext.Dirty...), ext.Removed...))
	}
	incremental := s.gains != nil && !s.sweepDue()
	if incremental {
		for _, comp := range ext.Dirty {
			if !s.Engine.InferComponent(s.State, comp, s.gains.SweepSeed(comp)) {
				incremental = false
				break
			}
		}
	}
	if !incremental {
		s.fullSweep()
		res.FullSweep = true
	}

	// Re-decide the grounding over the grown corpus. The previous
	// grounding has the old length, so the amount-of-changes indicator
	// resets across an ingest (prev := current) rather than comparing
	// groundings of different corpora.
	s.grounding = s.Engine.Grounding(s.State)
	s.prevGnd = s.grounding.Clone()
	return res, nil
}
