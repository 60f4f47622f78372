package workload

import (
	"factcheck/internal/factdb"
	"factcheck/internal/service"
	"factcheck/internal/sim"
	"factcheck/internal/stats"
)

// User outcomes.
const (
	_                = iota // the zero value: still running when the scenario ended
	outcomeCompleted        // finished its answers (or its session)
	outcomeAbandoned        // walked away, session left open
	outcomeFailed           // an operation error ended the user
)

// simUser is the core.User-shaped contract the §8 simulators share.
type simUser interface {
	Validate(claim int) (verdict bool, ok bool)
}

// fleetUser is one simulated fact checker: a behavior profile bound to
// per-user random streams, the client-side ground truth of its corpus
// (the loadtest regenerates the deterministic synthetic corpus locally,
// so erroneous and worker verdicts can be simulated without asking the
// server for the truth), and its live session handle.
type fleetUser struct {
	idx      int
	groupIdx int
	behavior Behavior
	cap      int // answer cap; 0 = drive to done

	truth   []bool
	inner   simUser     // verdict source for non-worker kinds
	worker  *sim.Worker // verdict + think source for expert/crowd
	think   *sim.Worker // think-time source for non-worker kinds
	gap     *sim.Worker // revisit-gap source for bursty
	rng     *stats.RNG  // abandon rolls
	session service.OpenRequest

	// sess opens the session and posts its deltas (tracking the corpus's
	// virtual shape — base + every delta already posted — so each next
	// delta's existing-row references stay valid); the rounds in between
	// are the behavior's own, through sess.Client.
	sess      service.Script
	answers   int
	skips     int
	burstLeft int
	outcome   int
	// Ingesting users stream corpus deltas into their session:
	// ingestBase seeds the per-delta stream, and the truths of new claims
	// extend live.Truth in posting order (deltas apply FIFO, ids are
	// assigned densely, and only this user writes to its session).
	live        *sim.Erroneous
	ingestBase  int64
	ingests     int
	sinceIngest int
	// precisions[k] and efforts[k] are the session's precision and
	// effort after the k-th answer; index 0 is the post-open baseline.
	precisions []float64
	efforts    []float64
}

// newFleetUser builds user idx of the run from its fleet group. All of
// its randomness derives from the scenario seed and idx via
// stats.StreamSeed, so the fleet is reproducible regardless of how
// users are scheduled.
func newFleetUser(sc *Scenario, idx, groupIdx int) (*fleetUser, error) {
	group := &sc.Fleet[groupIdx]
	b := group.Behavior.withDefaults()
	base := uint64(sc.Seed)
	streamID := func(slot uint64) int64 { return stats.StreamSeed(base, uint64(idx+1)*8+slot) }

	req := sc.Session
	req.Seed += int64(idx)
	corpus, err := service.BuildCorpus(req) // what the server builds, truth included
	if err != nil {
		return nil, err
	}
	truth := corpus.Truth

	u := &fleetUser{
		idx:       idx,
		groupIdx:  groupIdx,
		behavior:  b,
		cap:       sc.answerCap(group),
		truth:     truth,
		rng:       stats.NewRNG(streamID(1)),
		session:   req,
		burstLeft: b.BurstLen,
	}
	switch b.Kind {
	case KindExpert, KindCrowd:
		u.worker = sim.NewWorker(b.Reliability, b.ThinkMedianSeconds, b.ThinkSigma, streamID(2))
	case KindIngesting:
		// The simulator reads its Truth field at call time, so appending
		// each posted delta's truth there keeps verdicts defined for the
		// claims that arrive.
		u.think = sim.NewWorker(1, b.ThinkMedianSeconds, b.ThinkSigma, streamID(2))
		u.live = sim.NewErroneous(truth, b.ErrorP, streamID(3))
		u.inner = u.live
		u.ingestBase = streamID(6)
	default:
		u.think = sim.NewWorker(1, b.ThinkMedianSeconds, b.ThinkSigma, streamID(2))
		var inner simUser = &sim.Oracle{Truth: truth}
		if b.ErrorP > 0 {
			inner = sim.NewErroneous(truth, b.ErrorP, streamID(3))
		}
		if b.Kind == KindSkipping {
			inner = sim.NewSkipper(inner, b.SkipP, streamID(4))
		}
		u.inner = inner
	}
	if b.Kind == KindBursty {
		u.gap = sim.NewWorker(1, b.BurstGapSeconds, b.ThinkSigma, streamID(5))
	}
	return u, nil
}

// drawThink returns the log-normal pause before this user's next
// interaction, via the sim.Worker response-time model.
func (u *fleetUser) drawThink() float64 {
	w := u.think
	if w == nil {
		w = u.worker
	}
	_, sec := w.Answer(true)
	return sec
}

// respond produces the answer request for the expected claim plus the
// think gap before the user's next interaction. For worker kinds the
// verdict and the time spent come from one sim.Worker.Answer draw — the
// §8.9 model ties them together; for the rest the verdict comes from
// the wrapped §8.1/§8.5 simulator and the time from the think stream.
func (u *fleetUser) respond(claim int) (service.AnswerRequest, float64) {
	req := service.AnswerRequest{Claim: claim}
	var think float64
	if u.worker != nil {
		req.Verdict, think = u.worker.Answer(u.truth[claim])
	} else {
		v, ok := u.inner.Validate(claim)
		req.Verdict, req.Skip = v, !ok
		think = u.drawThink()
	}
	if u.gap != nil && !req.Skip {
		if u.burstLeft--; u.burstLeft <= 0 {
			// Burst over: leave, revisit after a long log-normal gap.
			_, think = u.gap.Answer(true)
			u.burstLeft = u.behavior.BurstLen
		}
	}
	return req, think
}

// capReached reports that the user has submitted its answer budget.
func (u *fleetUser) capReached() bool {
	return u.cap > 0 && u.answers >= u.cap
}

// open creates the user's session and returns the think gap before its
// first interaction.
func (u *fleetUser) open(c *service.Client, rec *recorder) (float64, error) {
	u.sess.Client = c
	var info service.SessionInfo
	err := rec.timed(opOpen, func() error {
		var err error
		info, err = u.sess.Open("", u.session)
		return err
	})
	if err != nil {
		u.outcome = outcomeFailed
		return 0, err
	}
	u.precisions = append(u.precisions, info.Precision)
	u.efforts = append(u.efforts, 0)
	return u.drawThink(), nil
}

// round performs one interaction (poll the expected claim, answer it)
// and returns the think gap before the next round; done reports that
// the user is finished, with u.outcome saying how.
func (u *fleetUser) round(rec *recorder) (think float64, done bool) {
	if u.behavior.Kind == KindAbandoning && u.rng.Bernoulli(u.behavior.AbandonP) {
		// Walk away without closing the session: cleaning up after
		// abandonment is the server's idle-eviction job, and exactly
		// what this profile exists to exercise.
		u.outcome = outcomeAbandoned
		return 0, true
	}
	if u.behavior.Kind == KindIngesting && u.sinceIngest >= u.behavior.IngestEvery {
		if !u.ingest(rec) {
			return 0, true
		}
	}
	var next service.NextResponse
	err := rec.timed(opNext, func() error {
		var err error
		next, err = u.sess.Client.Next(u.sess.ID, 1)
		return err
	})
	if err != nil {
		u.outcome = outcomeFailed
		return 0, true
	}
	if next.Done || len(next.Candidates) == 0 {
		u.complete(rec)
		return 0, true
	}
	req, think := u.respond(next.Candidates[0].Claim)
	// Declare the expected transcript sequence so a retried submission
	// (client retry is on by default in loadtest fleets) is idempotent
	// server-side instead of tripping a conflict.
	seq := next.Seq
	req.Seq = &seq
	var st service.StateResponse
	err = rec.timed(opAnswer, func() error {
		var err error
		st, err = u.sess.Client.Answer(u.sess.ID, req)
		return err
	})
	if err != nil {
		u.outcome = outcomeFailed
		return 0, true
	}
	if req.Skip {
		u.skips++
	} else {
		u.answers++
		u.sinceIngest++
		u.precisions = append(u.precisions, st.Precision)
		u.efforts = append(u.efforts, st.Effort)
	}
	if st.Done || u.capReached() {
		u.complete(rec)
		return 0, true
	}
	return think, false
}

// ingest streams one deterministically generated corpus delta into the
// user's session; ok=false means the operation failed and the user is
// done. The local ground truth is extended whether the server applied
// the delta inline or queued it — the mailbox is FIFO and drains before
// the session's next guidance work, so by the time any new claim can be
// offered as a candidate its truth is in place.
func (u *fleetUser) ingest(rec *recorder) bool {
	var d factdb.Delta
	err := rec.timed(opIngest, func() error {
		var err error
		d, _, err = u.sess.Ingest(u.behavior.IngestScale, stats.StreamSeed(uint64(u.ingestBase), uint64(u.ingests)))
		return err
	})
	if err != nil {
		u.outcome = outcomeFailed
		return false
	}
	u.live.Truth = append(u.live.Truth, d.Truth...)
	u.ingests++
	u.sinceIngest = 0
	return true
}

// complete closes out a finished user: the session is deleted (freeing
// server resources) and the outcome recorded. A delete failure counts
// as an op error but the user still completed its work.
func (u *fleetUser) complete(rec *recorder) {
	_ = rec.timed(opDelete, func() error { return u.sess.Client.Delete(u.sess.ID) })
	u.outcome = outcomeCompleted
}
