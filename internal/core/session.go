package core

import (
	"errors"
	"fmt"

	"factcheck/internal/factdb"
	"factcheck/internal/guidance"
)

// ErrClosed is returned by operations on a session after Close.
var ErrClosed = errors.New("core: session is closed")

// ErrDone is returned by Answer on a session that is Done.
var ErrDone = errors.New("core: session is done")

// Elicitation is one user interaction: the claim the process asked about
// and the user's response. OK = false records a skip (§8.5). Repair
// prompts from confirmation checks (§5.2) appear in the log like any
// other elicitation, so the log is a complete transcript of the
// user-facing side of Alg. 1. Degraded marks elicitations whose
// iteration was ranked in degraded mode (the overload fallback to the
// uncertainty ranking, see SetDegraded): the flag is what makes a
// degraded transcript replayable — and the degraded answers auditable —
// since a degraded iteration draws no scoring values from the session
// RNG and replay must skip the same draws.
type Elicitation struct {
	Claim    int  `json:"claim"`
	Verdict  bool `json:"verdict"`
	OK       bool `json:"ok"`
	Degraded bool `json:"degraded,omitempty"`
	// Ingest, when non-nil, marks this record as a corpus-delta arrival
	// instead of a user interaction: the delta was applied to the live
	// database at exactly this transcript position (Session.Ingest).
	// Claim/Verdict/OK are meaningless on an ingest record. Recording
	// arrivals in the transcript is what keeps grown sessions a pure
	// function of (database, options, transcript): RestoreSession
	// re-applies each delta at its recorded position, so snapshot
	// restore and crash recovery replay arrivals bit-identically. A
	// live session does not hold this payload (logEntry): Snapshot and
	// TranscriptTail rebuild it from the tables it was applied to.
	Ingest *factdb.Delta `json:"ingest,omitempty"`
}

// SnapshotVersion is the encoding version written into snapshots taken
// by this build. RestoreSession accepts any version up to and including
// it; a snapshot from a newer build (a higher version) is rejected with
// a descriptive error instead of silently replaying under changed
// semantics. Version 0 is the pre-versioned encoding and is read as
// version 1. Version 2 marks the incremental-inference default
// (Options.FullSweepEvery = 4 with epoch-seeded what-if scoring):
// replaying a version ≤ 1 snapshot under the default diverges and
// fails loud in the replay check; pinning FullSweepEvery = 1 (no gain
// cache, per-round RNG scoring draws) replays pre-v2 transcripts
// bit-identically. Served sessions persist their opening
// request, which on records written by older builds carries no
// fullSweepEvery field, so their revival fails loud rather than
// silently diverging. Version 3 adds the per-elicitation Degraded flag
// (overload fallback to the uncertainty ranking); v2 snapshots decode
// with the flag false on every record, which is exactly right — no
// pre-v3 session ever ranked degraded — so they replay unchanged.
// Version 4 adds corpus-ingestion records (Elicitation.Ingest): a
// transcript entry may carry a corpus delta applied mid-session, which
// RestoreSession re-applies at its recorded position. Snapshots
// without ingest records are encoding-compatible with v3 in both
// directions; a v4 snapshot that does carry deltas must be rejected by
// older builds — hence the bump.
const SnapshotVersion = 4

// Snapshot is a serialisable record of a session's progress: the full
// elicitation transcript. Because every other part of a session — claim
// selection, inference, grounding, the hybrid score — is a deterministic
// function of (database, options, user responses), replaying the
// transcript against the same database and options reconstructs the
// session bit-identically. This is the persistence hook behind the
// multi-session server: a snapshot is small (one record per elicitation),
// JSON-friendly, and independent of engine internals.
//
// Image, when present, is the session's state image at the end of the
// transcript: a verified accelerator for RestoreSession (image.go,
// DESIGN.md §10), never a second source of truth. A snapshot without
// one, or with one this build, these options or this transcript do not
// vouch for, restores by replay.
type Snapshot struct {
	Version      int           `json:"version,omitempty"`
	Elicitations []Elicitation `json:"elicitations"`
	Image        []byte        `json:"image,omitempty"`
}

// logEntry is one transcript record as a live session holds it: an
// Elicitation's fields without the delta payload. An applied delta
// lives in the session once, as rows of the database's tables
// (DESIGN.md §15, §19); its record keeps, in arrival, only what the
// tables do not hold — where the rows are, and the truth that rode
// along. TranscriptTail puts the two back together. (Spelling the
// fields out instead of embedding an Elicitation whose Ingest is always
// nil keeps an answer's record at the 24 bytes it always was.)
type logEntry struct {
	claim                 int
	verdict, ok, degraded bool
	arrival               *arrival // non-nil marks an ingest record
}

// arrival locates an applied delta's rows in Session.DB (DeltaAt
// rebuilds the payload from there) and carries its Truth, which the
// database never sees.
type arrival struct {
	span  factdb.Span
	truth []bool
}

// logEntryOf is e as the transcript keeps it; at is where Extend put
// e.Ingest's rows (unread for an answer).
func logEntryOf(e Elicitation, at factdb.Span) logEntry {
	r := logEntry{claim: e.Claim, verdict: e.Verdict, ok: e.OK, degraded: e.Degraded}
	if e.Ingest != nil {
		r.arrival = &arrival{span: at, truth: e.Ingest.Truth}
	}
	return r
}

// elicitation is the record without its payload: Ingest is nil even on
// an ingest record.
func (r logEntry) elicitation() Elicitation {
	return Elicitation{Claim: r.claim, Verdict: r.verdict, OK: r.ok, Degraded: r.degraded}
}

// record appends one entry to the transcript, keeping its digest
// current. The digest reads an ingest record's whole payload; the
// transcript then lets go of it.
func (s *Session) record(e Elicitation, at factdb.Span) {
	s.digest = digestElicitation(s.digest, e)
	s.elog = append(s.elog, logEntryOf(e, at))
}

// ask elicits a verdict and records the elicitation in the transcript,
// stamped with the mode the current iteration's ranking was computed
// under (pendingDegraded).
func (s *Session) ask(user User, c int) (bool, bool) {
	v, ok := user.Validate(c)
	s.record(Elicitation{Claim: c, Verdict: v, OK: ok, Degraded: s.pendingDegraded}, factdb.Span{})
	return v, ok
}

// SetDegraded switches the session's ranking mode. While degraded, the
// next computed ranking uses the cheap precomputed uncertainty order
// (guidance.Uncertainty — RNG-free, stable) instead of the configured
// strategy; this is the graceful-degradation fallback the serving SLO
// controller flips under overload. The switch deliberately does NOT
// invalidate a cached ranking: mode is captured when a ranking is
// computed and holds for that whole iteration, so Pending stays
// idempotent and a mid-iteration flip cannot fork the selection trace.
// Every elicitation records the mode it was ranked under, which is what
// keeps degraded transcripts bit-identically replayable: a degraded
// iteration draws no scoring values from the session RNG, and replay
// (RestoreSession) re-applies the recorded mode before each Step.
func (s *Session) SetDegraded(v bool) { s.degraded = v }

// ranked returns the full ranking for the current iteration, computing
// and caching it on first call. The cache is what makes Pending
// idempotent: ranking draws one value from the session RNG per scoring
// round, so recomputing on every call would advance the random stream
// and fork the selection trace away from a session that ranks once per
// iteration. Ranking with k = |C| instead of Step's historical k = 2 is
// trace-neutral: k only truncates the sorted order, it never changes the
// number of RNG draws or the relative order of the head. In degraded
// mode the ranking comes from the RNG-free uncertainty order instead of
// the configured strategy, and the mode is captured alongside the cache
// so the iteration's elicitations record how they were ranked.
func (s *Session) ranked() []int {
	if !s.pendingOK {
		// Remember the RNG state the round starts from: if a corpus
		// ingest discards this ranking before a Step consumes it, Ingest
		// rewinds to here so the aborted round's draws never happened —
		// the property that keeps a live session bit-identical to its
		// transcript replay, which only ranks once, after the ingest.
		s.rngAtRank = *s.rng
		if s.degraded {
			s.pending = guidance.Uncertainty{}.Rank(s.ctx(), s.DB.NumClaims)
		} else {
			if s.hybrid != nil {
				s.hybrid.Z = s.zScore
			}
			s.pending = s.opts.Strategy.Rank(s.ctx(), s.DB.NumClaims)
		}
		s.pendingDegraded = s.degraded
		s.pendingOK = true
	}
	return s.pending
}

// invalidatePending drops the cached ranking, and a pending skip of its
// head with it; called whenever labels (and hence any ranking input)
// change.
func (s *Session) invalidatePending() {
	s.pending = nil
	s.pendingOK = false
	s.skipped = false
}

// asked is the current iteration's ranking past a pending skip: the
// claims the session asks about next, in order.
func (s *Session) asked() []int {
	r := s.ranked()
	if s.skipped {
		r = r[1:]
	}
	return r
}

// Pending returns up to k claims of the current iteration's ranking in
// descending preference — the claims Step would elicit next, starting
// past the top claim while its skip is pending (Answer). The ranking
// is computed once per iteration and cached until the next validation, so
// repeated Pending calls (a client polling "which claim next?") are
// idempotent and do not perturb the session's random stream: a session
// whose ranking is inspected between steps produces the same selection
// trace as one that is only stepped. k <= 0 returns the full ranking.
// A Done session has no claims pending, and no scoring round runs.
// Pending is only meaningful in single-claim mode; in batch mode (§6.2)
// it returns an error, since batch assembly is interactive in the
// marginal-gain sense and has no precomputable order.
func (s *Session) Pending(k int) ([]int, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if s.opts.BatchSize >= 2 {
		return nil, errors.New("core: Pending is unavailable in batch mode")
	}
	if s.Done() {
		return nil, nil
	}
	r := s.asked()
	if k > 0 && len(r) > k {
		r = r[:k]
	}
	return append([]int(nil), r...), nil
}

// PendingCached returns what Pending(0) would, only if the ranking has
// already been computed (by Pending or Step), without triggering a
// scoring round — the cheap peek behind read-only status endpoints.
func (s *Session) PendingCached() ([]int, bool) {
	if s.closed || !s.pendingOK {
		return nil, false
	}
	return append([]int(nil), s.asked()...), true
}

// Answer applies one served response to the claim Pending(1) names and
// refuses any other claim; on a Done session it refuses every claim
// with ErrDone. A first skip with a fallback candidate left
// is recorded at once and moves the question to the second-best
// candidate (§8.5); anything else completes the iteration through Step:
// a second skip accepts the model value, and the repair prompts of a
// confirmation check, which a served response cannot answer, are
// recorded as skips.
func (s *Session) Answer(claim int, verdict, ok bool) error {
	top, err := s.Pending(1)
	if err != nil {
		return err
	}
	if s.Done() {
		return ErrDone
	}
	if len(top) == 0 {
		return fmt.Errorf("core: answer to claim %d, but no claim is pending", claim)
	}
	if claim != top[0] {
		return fmt.Errorf("core: expected claim %d, got %d", top[0], claim)
	}
	if ok || !s.skip(claim) {
		s.Step(&answerUser{claim: claim, verdict: verdict, ok: ok})
	}
	return nil
}

// skip records a first skip of claim, the head of the current ranking,
// and moves the question to the second-best candidate. It records
// nothing and reports false — Step completes the iteration — in batch
// mode, when claim is not the head, when a skip is already pending and
// when no fallback is left.
func (s *Session) skip(claim int) bool {
	if s.opts.BatchSize >= 2 || s.skipped {
		return false
	}
	if r := s.ranked(); len(r) < 2 || r[0] != claim {
		return false
	}
	s.record(Elicitation{Claim: claim, Degraded: s.pendingDegraded}, factdb.Span{})
	s.skipped = true
	return true
}

// answerUser is the user of a Step that Answer drives: it gives its one
// response to its claim, and skips every other elicitation.
type answerUser struct {
	claim       int
	verdict, ok bool
	used        bool
}

func (u *answerUser) Validate(c int) (bool, bool) {
	if u.used || c != u.claim {
		return false, false
	}
	u.used = true
	return u.verdict, u.ok
}

// Close marks the session closed and drops its computed ranking. A
// session holds no scoring lane between rounds (guidance.Pool borrows
// them per round), so there is nothing else to release. A closed session
// still serves read-only accessors (State, History, Snapshot, Precision),
// but Step and Run become no-ops and Pending returns ErrClosed. Closing
// an already-closed session returns ErrClosed.
func (s *Session) Close() error {
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	s.invalidatePending()
	return nil
}

// Closed reports whether Close has been called.
func (s *Session) Closed() bool { return s.closed }

// Snapshot returns the session's replayable transcript and, beside it,
// the state image that lets RestoreSession skip the replay. The snapshot
// is valid when taken between Step calls (a server takes one after each
// answered request); restoring mid-Step states is not supported. A
// closed session has dropped its cached ranking without rewinding the
// draws that computed it, a pending skip is state no image holds, and a
// caller-supplied strategy may keep state no image can see; all three
// snapshot the transcript alone.
func (s *Session) Snapshot() Snapshot {
	return Snapshot{Version: SnapshotVersion, Elicitations: s.TranscriptTail(0), Image: s.Image()}
}

// Image returns the state image Snapshot carries beside the transcript
// (nil when it carries none), without rebuilding the transcript: a
// caller that already persisted the records pays for the image alone.
func (s *Session) Image() []byte {
	if s.closed || s.skipped || !statelessStrategy(s.opts.Strategy) {
		return nil
	}
	return s.appendImage()
}

// TranscriptLen returns the number of elicitations recorded so far.
// Together with TranscriptTail it lets a caller persist the transcript
// incrementally (append only what a Step added) instead of rewriting the
// full Snapshot after every answer.
func (s *Session) TranscriptLen() int { return len(s.elog) }

// TranscriptTail returns the elicitations recorded at or after index
// from in their durable form (nil when from is at or past the end, as
// an empty transcript has always been encoded). It is the one place an
// ingest record's payload is rebuilt: the rebuilt delta is the applied
// one field for field (DB.DeltaAt), so snapshots, WAL lines and the
// digest cannot tell the difference. A caller that only inspects
// records reads them through TranscriptAt instead.
func (s *Session) TranscriptTail(from int) []Elicitation {
	from = max(from, 0)
	if from >= len(s.elog) {
		return nil
	}
	out := make([]Elicitation, len(s.elog)-from)
	for i, r := range s.elog[from:] {
		out[i] = r.elicitation()
		if a := r.arrival; a != nil {
			d := s.DB.DeltaAt(a.span)
			d.Truth = a.truth
			out[i].Ingest = &d
		}
	}
	return out
}

// TranscriptAt returns record i without its payload — Ingest is nil
// even on an ingest record — and whether it is one. It copies and
// rebuilds nothing.
func (s *Session) TranscriptAt(i int) (e Elicitation, ingest bool) {
	return s.elog[i].elicitation(), s.elog[i].arrival != nil
}

// replayUser feeds a recorded transcript back into the Alg. 1 loop,
// verifying at every elicitation that the process asks about the claim
// the transcript recorded — any divergence means the database, options or
// seed differ from the snapshotted session.
type replayUser struct {
	log []Elicitation
	pos int
	err error
}

func (u *replayUser) Validate(claim int) (bool, bool) {
	if u.err != nil {
		return false, false
	}
	if u.pos >= len(u.log) {
		u.err = fmt.Errorf("core: replay ran past the transcript's %d elicitations (asked claim %d)", len(u.log), claim)
		return false, false
	}
	e := u.log[u.pos]
	if e.Ingest != nil {
		// Ingest records sit between Steps; one landing mid-Step means
		// the transcript is corrupt or from a diverging configuration.
		u.err = fmt.Errorf("core: replay hit an ingest record mid-step at position %d (asked claim %d)", u.pos, claim)
		return false, false
	}
	if e.Claim != claim {
		u.err = fmt.Errorf("core: replay diverged at elicitation %d: process asked claim %d, transcript recorded claim %d (database/options/seed mismatch?)", u.pos, claim, e.Claim)
		return false, false
	}
	u.pos++
	return e.Verdict, e.OK
}

// RestoreSession reconstructs a session from a snapshot taken against
// the same database and options. The restored session is bit-identical
// to the snapshotted one — same state, grounding, history, hybrid score
// and random stream — so a server can persist sessions across restarts
// and resume them exactly. db must be the corpus the session was opened
// over, before any recorded ingest; it is grown in place.
//
// Replaying the transcript is the definition of that session. When the
// snapshot carries a state image that verifies (decodeImage), the
// session is instead built from the image — the state after the image's
// first n elicitations — and only the transcript tail behind it is
// replayed, through the same loop; any doubt about the image and the
// whole transcript is replayed from position 0. Restored reports which.
// Restoration fails with a descriptive error when the transcript does
// not match the selection trace the (db, opts) pair deterministically
// produces.
func RestoreSession(db *factdb.DB, opts Options, snap Snapshot) (*Session, error) {
	if snap.Version > SnapshotVersion {
		return nil, fmt.Errorf("core: snapshot encoding version %d is newer than this build supports (max %d)",
			snap.Version, SnapshotVersion)
	}
	if err := checkDB(db); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	config := configFingerprint(db, opts)
	var s *Session
	u := &replayUser{log: snap.Elicitations}
	img, reason := decodeImage(db, opts, config, snap)
	if img != nil {
		var err error
		if s, err = img.install(db, opts, config, snap.Elicitations[:img.n]); err != nil {
			return nil, err
		}
		u.pos = img.n
	} else {
		s = openSession(db, opts, config)
	}
	s.restored = Restored{Image: img != nil, Reason: reason, Replayed: len(u.log) - u.pos}
	for u.pos < len(u.log) && u.err == nil {
		// A recorded corpus arrival is re-applied at exactly its
		// transcript position, growing the database and refreshing
		// inference the same way the original Ingest call did.
		if rec := u.log[u.pos]; rec.Ingest != nil {
			u.pos++
			if _, err := s.Ingest(*rec.Ingest); err != nil {
				return nil, fmt.Errorf("core: replay of ingest record %d: %w", u.pos-1, err)
			}
			continue
		}
		// Re-apply the ranking mode the original session used for this
		// iteration: its first elicitation recorded whether it was ranked
		// degraded, and the mode governs both the ranking order and the
		// RNG draws the replayed Step consumes. Elicitations of one Step
		// all carry the iteration's mode, so reading the next unconsumed
		// record is exact.
		rec := u.log[u.pos]
		s.SetDegraded(rec.Degraded)
		// A first skip that no answer follows before the transcript ends
		// or an arrival discards its ranking was a pending skip (Answer);
		// a Step never writes one, since it asks the fallback at once.
		if next := u.pos + 1; (next == len(u.log) || u.log[next].Ingest != nil) &&
			!rec.OK && !rec.Verdict && s.skip(rec.Claim) {
			u.pos++
			continue
		}
		// A Step that consumes nothing and reports done ends the replay
		// (falling through to the consumed-count check below); a Step
		// that did consume may be followed by an ingest record that
		// un-finishes the session, so the loop continues.
		before := u.pos
		if s.Step(u) && u.pos == before {
			break
		}
	}
	// Leave the restored session in normal mode; whoever drives it next
	// (the serving SLO controller, or nobody) re-decides per request.
	s.SetDegraded(false)
	if u.err != nil {
		return nil, u.err
	}
	if u.pos != len(u.log) {
		return nil, fmt.Errorf("core: replay consumed %d of %d transcript elicitations", u.pos, len(u.log))
	}
	return s, nil
}
