package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/obs"
)

// withSession runs fn with the session locked and, when the request
// performs inference or scoring (needWorkers), one base lane of the
// worker budget held (its parallel sections borrow the rest, see Budget). This is the per-request concurrency shape: distinct
// sessions run fn concurrently, one session's requests serialise,
// inference work shares the bounded lane budget, and read-only requests
// (state, snapshot) neither wait for nor consume lanes.
//
// The SLO controller hooks in here for work-performing requests: while
// shedding, a request that cannot take a lane immediately is refused
// with ErrOverloaded instead of queueing (shed-before-queue — the queue
// is exactly where a saturated p99 comes from), and the session's
// ranking mode for this request is set from the controller's rung at
// execution time (after any queue wait, so a backlog queued across the
// degrade transition drains at the cheap cost). The mode flip is
// trace-safe: core captures the mode at ranking time, so a cached
// ranking from a previous request keeps the mode it was computed under.
func (m *Manager) withSession(ctx context.Context, id string, needWorkers bool, fn func(*Session) error) error {
	trace := obs.TraceID(ctx)
	s, err := m.get(ctx, id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.core.Closed() {
		// Evicted between lookup and lock.
		return ErrNotFound
	}
	if needWorkers {
		// Contention is sampled at arrival, before this request takes
		// (or queues for) lanes of its own — the signal is "did anyone
		// meet a saturated budget", not "is the budget busy while I
		// hold it".
		waits := m.waitsNow()
		laneStart := time.Now()
		if m.slo != nil && m.slo.ModeAt(m.nowSec(), waits) == ModeShedding {
			release, ok := m.budget.TryAcquire()
			if !ok {
				m.slo.RecordShed()
				return ErrOverloaded
			}
			defer release()
		} else {
			release := m.budget.Acquire()
			defer release()
		}
		m.observeSpan(s, trace, obs.StageLaneAcquire, laneStart)
		defer m.served(s)
		if m.slo != nil {
			// The ranking mode is stamped at execution time, after any
			// queue wait: when the controller degrades mid-backlog, the
			// queued requests behind the transition run cheap instead of
			// re-paying the full scoring cost the server already cannot
			// afford.
			s.core.SetDegraded(m.slo.ModeAt(m.nowSec(), waits) != ModeNormal)
		}
		// Drain the ingestion mailbox before the request's own work: a
		// worker-holding request is the batch boundary arrivals queue
		// between, so every ranking and answer sees the freshest corpus.
		// The span is recorded only when there was something to drain —
		// an empty mailbox is not an ingest_apply stage.
		s.boxMu.Lock()
		queued := len(s.box)
		s.boxMu.Unlock()
		drainStart := time.Now()
		if err := m.drainLocked(s); err != nil {
			return err
		}
		if queued > 0 {
			m.observeSpan(s, trace, obs.StageIngestApply, drainStart)
		}
		defer m.sampleGainCache(s)
	}
	return fn(s)
}

// NextCtx returns the current iteration's top-k guidance ranking. The
// ranking is cached inside the core session, so polling is idempotent
// and trace-neutral. ctx carries the request's trace id (see
// obs.WithTrace); the HTTP layer threads it through so the lane and
// drain spans recorded here land in the session's trace ring under the
// request's id.
func (m *Manager) NextCtx(ctx context.Context, id string, k int) (NextResponse, error) {
	var resp NextResponse
	err := m.withSession(ctx, id, true, func(s *Session) error {
		resp = s.next(k)
		return nil
	})
	return resp, err
}

func (s *Session) next(k int) NextResponse {
	resp := NextResponse{ID: s.id, Iteration: s.core.Iterations(), Seq: s.core.TranscriptLen()}
	rank, _ := s.core.Pending(max(k, 1))
	if len(rank) == 0 {
		resp.Done = true
		return resp
	}
	// The ranking may be one cached before a release.
	rows := s.core.Engine.Rows()
	for _, c := range rank {
		resp.Candidates = append(resp.Candidates, Candidate{
			Claim:     c,
			P:         s.core.State.P(c),
			Documents: len(rows.ClaimCliques(c)),
			Sources:   len(rows.ClaimSources(c)),
		})
	}
	return resp
}

// ingestOnlySince reports whether every transcript record at or after
// seq is a corpus-ingestion arrival. Clients echo the sequence they
// last saw, but server-side ingestion commits transcript records the
// client cannot know about; a sequence stale only by ingest records
// still uniquely identifies "the next answer", so the sequence check
// tolerates it instead of bouncing the answer with ErrSeq.
func (s *Session) ingestOnlySince(seq int) bool {
	if seq < 0 || seq > s.core.TranscriptLen() {
		return false
	}
	for i := seq; i < s.core.TranscriptLen(); i++ {
		if _, ingest := s.core.TranscriptAt(i); !ingest {
			return false
		}
	}
	return true
}

// AnswerCtx applies one response to the currently expected claim and,
// when it completes an iteration, runs incremental inference. Every
// record the response writes (the answer or skip itself, repair prompts
// from a confirmation check) is appended to the snapshot store before
// the response is returned: a crash at any instant loses at
// most an answer whose response the client never saw, and resubmitting
// it after recovery is consistent.
//
// The whole path is decomposed into spans (lane acquire → mailbox
// drain → Gibbs resample → dirty-component rescore → WAL append, plus
// the whole-path answer span) recorded under ctx's trace id in the
// session's trace ring and the per-stage histograms behind /metrics.
func (m *Manager) AnswerCtx(ctx context.Context, id string, req AnswerRequest) (StateResponse, error) {
	trace := obs.TraceID(ctx)
	start := m.nowFn()
	wallStart := time.Now()
	var resp StateResponse
	var degraded bool
	err := m.withSession(ctx, id, true, func(s *Session) error {
		from := s.core.TranscriptLen()
		var err error
		resp, err = s.answer(req, func(stage string, t0 time.Time) {
			m.observeSpan(s, trace, stage, t0)
		})
		if err != nil {
			return err
		}
		for i := from; i < s.core.TranscriptLen(); i++ {
			if e, _ := s.core.TranscriptAt(i); e.Degraded {
				degraded = true
			}
		}
		walStart := time.Now()
		if err := m.persistTail(s, from); err != nil {
			return err
		}
		m.observeSpan(s, trace, obs.StageWALAppend, walStart)
		m.observeSpan(s, trace, obs.StageAnswer, wallStart)
		return nil
	})
	if err == nil {
		lat := m.nowFn().Sub(start).Seconds()
		m.recordAnswer(lat)
		if m.slo != nil {
			if degraded {
				m.slo.RecordDegradedAnswer()
			}
			m.slo.ObserveAnswer(m.nowSec(), lat, m.waitsNow())
		}
	}
	return resp, err
}

// persistTail appends the elicitations recorded at or after index from
// to the store and cuts a fresh checkpoint when the WAL reaches
// CheckpointEvery; s.mu must be held. A failed append is retried as a
// checkpoint handed the whole transcript (the store's seq-numbered
// merge makes the repair safe); only when both fail is ErrPersist
// reported — the in-memory session stays consistent either way.
//
// An ingest record's WAL line is written from the delta the session
// rebuilds out of its tables (TranscriptTail), also on the drain path,
// where the applied delta is still in hand: one producer of the durable
// form, so a WAL line and a payload cut from the same transcript cannot
// disagree, and every applied delta proves on its first write that its
// rows rebuild. The rebuilt copy is garbage as soon as the line is out,
// and no checkpoint rebuilds it again. A Done session is released
// first, so every image the store receives is the released one.
func (m *Manager) persistTail(s *Session, from int) error {
	if s.core.Done() {
		s.core.Release()
	}
	tail := s.core.TranscriptTail(from)
	if len(tail) == 0 {
		return nil
	}
	for i, e := range tail {
		if err := m.store.Append(s.id, from+i, e); err != nil {
			s.stored = 0
			if _, cerr := m.checkpointLocked(s, 0); cerr != nil {
				return fmt.Errorf("%w: %v", ErrPersist, err)
			}
			return nil
		}
	}
	s.stored = from + len(tail)
	s.walLen += len(tail)
	if s.walLen >= m.cfg.CheckpointEvery {
		// Checkpoint failure is non-fatal: the WAL holds the full
		// transcript beside the previous image, and the next threshold
		// retries.
		_, _ = m.checkpointLocked(s, s.stored)
	}
	return nil
}

// IngestCtx accepts one corpus delta for a live session: the delta is
// validated against the session's virtual corpus shape (database plus
// queued deltas — apply-time failure is impossible by induction) and
// enqueued in the session's bounded mailbox, then applied immediately
// when the session lock and a worker lane are free right now. A full
// mailbox is refused with ErrMailboxFull and counts as a shed toward
// the SLO controller's telemetry: arrivals outpacing the drain are
// exactly the overload admission control exists to push back on. An
// opportunistic inline apply records its ingest_apply span under the
// trace id ctx carries.
func (m *Manager) IngestCtx(ctx context.Context, id string, req IngestRequest) (IngestResponse, error) {
	if req.Delta.Empty() {
		return IngestResponse{}, errors.New("service: empty delta")
	}
	if len(req.Delta.Truth) != req.Delta.NewClaims {
		return IngestResponse{}, fmt.Errorf(
			"service: delta carries %d truth values for %d new claims (this server grades against ground truth; see IngestRequest)",
			len(req.Delta.Truth), req.Delta.NewClaims)
	}
	s, err := m.get(ctx, id)
	if err != nil {
		return IngestResponse{}, err
	}
	resp := IngestResponse{ID: id}
	s.boxMu.Lock()
	if len(s.box) >= MailboxCap {
		s.boxMu.Unlock()
		if m.slo != nil {
			m.slo.RecordShed()
		}
		return IngestResponse{}, fmt.Errorf("%w: %d deltas queued", ErrMailboxFull, MailboxCap)
	}
	if err := req.Delta.Validate(s.boxClaims, s.boxSources, s.srcDim, s.docDim); err != nil {
		s.boxMu.Unlock()
		return IngestResponse{}, err
	}
	s.box = append(s.box, req.Delta)
	c, src, docs := req.Delta.Counts()
	s.boxClaims += c
	s.boxSources += src
	s.boxDocs += docs
	resp.Queued = len(s.box)
	resp.Claims, resp.Sources, resp.Documents = s.boxClaims, s.boxSources, s.boxDocs
	s.boxMu.Unlock()

	// Opportunistic apply: when the session lock and a worker lane are
	// both free right now, the arrival is folded in before the response
	// leaves (Applied = true, and the delta is durably in the WAL).
	// Contention skips this — the mailbox drains at the next ranking or
	// answer — so a busy session never makes producers wait behind
	// inference.
	if s.mu.TryLock() {
		defer s.mu.Unlock()
		if s.core.Closed() {
			// The session was evicted or deleted between lookup and
			// lock; the enqueue above landed in a dead object.
			return IngestResponse{}, ErrNotFound
		}
		if release, ok := m.budget.TryAcquire(); ok {
			drainStart := time.Now()
			err := m.drainLocked(s)
			release()
			m.served(s)
			if err != nil {
				return IngestResponse{}, err
			}
			m.observeSpan(s, obs.TraceID(ctx), obs.StageIngestApply, drainStart)
			resp.Applied = true
			resp.Queued = 0
			resp.Seq = s.core.TranscriptLen()
		}
	}
	return resp, nil
}

// drainLocked applies every queued delta to the live session, records
// the arrivals in the transcript, and persists the tail; s.mu must be
// held along with a base lane. Enqueue-time validation against
// the virtual shape makes apply failure impossible; one anyway would
// indicate corruption and is surfaced as the internal error it is.
func (m *Manager) drainLocked(s *Session) error {
	s.boxMu.Lock()
	deltas := s.box
	s.box = nil
	s.boxMu.Unlock()
	if len(deltas) == 0 {
		return nil
	}
	from := s.core.TranscriptLen()
	for _, d := range deltas {
		if _, err := s.core.Ingest(d); err != nil {
			return fmt.Errorf("service: queued delta failed to apply: %w", err)
		}
		// Ground truth for the new claims travels inside the delta; the
		// truth vector grows in lockstep with the corpus so oracle
		// answers and precision stay defined.
		s.truth = append(s.truth, d.Truth...)
	}
	return m.persistTail(s, from)
}

// drainWithBudget drains the mailbox under a base lane of its own; s.mu
// must be held. It serves the paths that persist a session outside the
// request flow (spill, export, shutdown), where acknowledged arrivals
// must be folded into the durable record rather than dropped with the
// live copy.
func (m *Manager) drainWithBudget(s *Session) error {
	s.boxMu.Lock()
	n := len(s.box)
	s.boxMu.Unlock()
	if n == 0 || s.core.Closed() {
		return nil
	}
	release := m.budget.Acquire()
	defer release()
	return m.drainLocked(s)
}

// transcriptReplay detects a sequence-carrying duplicate of an answer
// the transcript already holds — the one idempotency path, in process
// and across a migration, spill or crash alike. A retry whose response
// was lost (on the wire, or while the session moved to another backend
// or through a SIGKILL) arrives with a now-stale sequence; rather than
// answering it with a spurious conflict, the transcript itself is
// consulted: if the elicitation recorded at the declared sequence is
// exactly this request (same claim, same applied verdict, same skip
// polarity) and nothing but auto-skipped prompts (OK=false records)
// followed it, the request was applied, and the session's current state
// is returned as the replayed response. Only sequence-carrying requests
// participate — the declared sequence is the client's idempotency key;
// content alone cannot tell a retry from a deliberate second
// submission. The transcript stays single-writer: nothing is
// re-applied, so the selection trace is bit-identical to a run in which
// the response was never lost.
func (s *Session) transcriptReplay(req AnswerRequest) (StateResponse, bool) {
	if req.Seq == nil || *req.Seq < 0 || *req.Seq >= s.core.TranscriptLen() {
		return StateResponse{}, false
	}
	if req.Claim < 0 || req.Claim >= len(s.truth) {
		return StateResponse{}, false
	}
	// Records are read in place (TranscriptAt): matching needs their
	// flags, never an ingested delta's payload. Ingest arrivals may have
	// committed between the client's read of the sequence and the
	// answer's apply; they are not elicitations, so the match steps over
	// them.
	n := s.core.TranscriptLen()
	at := func(i int) core.Elicitation {
		e, _ := s.core.TranscriptAt(i)
		return e
	}
	first := *req.Seq
	for ; first < n; first++ {
		if _, ingest := s.core.TranscriptAt(first); !ingest {
			break
		}
	}
	if first == n {
		return StateResponse{}, false
	}
	e := at(first)
	if e.Claim != req.Claim || e.OK != !req.Skip {
		return StateResponse{}, false
	}
	want := req.Verdict
	if req.Oracle {
		want = s.truth[req.Claim]
	}
	if e.OK && e.Verdict != want {
		return StateResponse{}, false
	}
	// Everything after the answer must be auto-skipped repair prompts
	// from the same Step's confirmation check or later ingest arrivals
	// (both OK=false records); a later accepted answer means the
	// declared sequence is genuinely stale, not a lost response.
	for i := first + 1; i < n; i++ {
		if at(i).OK {
			return StateResponse{}, false
		}
	}
	_, _ = s.core.Pending(1) // warm, trace-neutral: the duplicate's response carries the next expected claim
	return s.state(false), true
}

// answer applies one response through core.Session.Answer, which owns
// the §8.5 protocol. span receives each finished inference stage (the
// Gibbs resample and the what-if rescore that warms the next ranking) —
// observation only, after the work is done, so instrumentation cannot
// perturb the selection trace.
func (s *Session) answer(req AnswerRequest, span func(stage string, start time.Time)) (StateResponse, error) {
	if resp, ok := s.transcriptReplay(req); ok {
		return resp, nil
	}
	if req.Seq != nil && *req.Seq != s.core.TranscriptLen() && !s.ingestOnlySince(*req.Seq) {
		return StateResponse{}, fmt.Errorf("%w: expected sequence %d, got %d",
			ErrSeq, s.core.TranscriptLen(), *req.Seq)
	}
	verdict := req.Verdict
	if req.Oracle && req.Claim >= 0 && req.Claim < len(s.truth) {
		verdict = s.truth[req.Claim]
	}
	stepStart := time.Now()
	if err := s.core.Answer(req.Claim, verdict, !req.Skip); errors.Is(err, core.ErrDone) {
		return StateResponse{}, ErrDone
	} else if err != nil {
		return StateResponse{}, fmt.Errorf("%w: %v", ErrWrongClaim, err)
	}
	span(obs.StageResample, stepStart)
	// Warm the next ranking so the response can carry the next expected
	// claim and a follow-up GET /next is served from cache. A finished
	// session ranks nothing, and its answer records no rescore span.
	rescoreStart := time.Now()
	_, _ = s.core.Pending(1)
	if !s.core.Done() {
		span(obs.StageRescore, rescoreStart)
	}
	return s.state(false), nil
}

// State reports the session's progress; withMarginals adds the full
// per-claim credibility marginals.
func (m *Manager) State(id string, withMarginals bool) (StateResponse, error) {
	var resp StateResponse
	err := m.withSession(context.Background(), id, false, func(s *Session) error {
		resp = s.state(withMarginals)
		return nil
	})
	return resp, err
}

func (s *Session) state(withMarginals bool) StateResponse {
	cs := s.core
	resp := StateResponse{
		ID:         s.id,
		Iterations: cs.Iterations(),
		Labeled:    cs.State.NumLabeled(),
		Claims:     s.core.DB.NumClaims,
		Effort:     cs.Effort(),
		Z:          cs.ZScore(),
		Precision:  cs.Precision(s.truth),
		Expected:   -1,
		Seq:        cs.TranscriptLen(),
	}
	resp.Done = cs.Done()
	if rank, ok := cs.PendingCached(); ok {
		resp.Done = resp.Done || len(rank) == 0
		if !resp.Done {
			resp.Expected = rank[0]
		}
	}
	if withMarginals {
		resp.Marginals = make([]float64, s.core.DB.NumClaims)
		for c := range resp.Marginals {
			resp.Marginals[c] = cs.State.P(c)
		}
	}
	return resp
}
