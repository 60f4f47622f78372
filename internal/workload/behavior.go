package workload

import (
	"factcheck/internal/service"
	"factcheck/internal/sim"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
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

	sess      TargetSession
	answers   int
	skips     int
	burstLeft int
	outcome   int
	// Ingesting users stream corpus deltas into their session. The
	// delta profile tracks the corpus's virtual shape (base + every
	// delta already posted) so each next delta's existing-row references
	// stay valid; ingestBase seeds the per-delta stream, truths of new
	// claims extend u.truth in posting order (deltas apply FIFO, ids are
	// assigned densely, and only this user writes to its session).
	deltaProf   synth.Profile
	ingestBase  int64
	ingests     int
	sinceIngest int
	// precisions[k] and efforts[k] are the session's precision and
	// effort after the k-th answer; index 0 is the post-open baseline.
	precisions []float64
	efforts    []float64
}

// userCorpus regenerates the corpus the server will build for req —
// synthetic corpora are a pure function of (profile, scale, seed), and
// both sides call the same service.BuildCorpus, so the fleet's local
// ground truth (and, for ingesting users, the corpus shape their deltas
// must validate against) is guaranteed to match the served corpus.
func userCorpus(req service.OpenRequest) (*synth.Corpus, error) {
	return service.BuildCorpus(req)
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
	corpus, err := userCorpus(req)
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
	if b.Kind == KindIngesting {
		// Deltas are generated from the base profile's statistical knobs
		// at the served corpus's actual shape (community partitioning and
		// scale floors can round the sizes away from the nominal profile;
		// the shape is what existing-row references validate against).
		prof, err := synth.ByName(req.Profile)
		if err != nil {
			return nil, err
		}
		prof.Claims = corpus.DB.NumClaims
		prof.Sources = len(corpus.DB.Sources)
		prof.Documents = len(corpus.DB.Documents)
		u.deltaProf = prof
		u.ingestBase = streamID(6)
	}
	switch b.Kind {
	case KindExpert, KindCrowd:
		u.worker = sim.NewWorker(b.Reliability, b.ThinkMedianSeconds, b.ThinkSigma, streamID(2))
	case KindIngesting:
		// The inner simulator must read the *live* truth slice — it
		// grows as deltas land, and a sim.Oracle/Erroneous would capture
		// the pre-ingest header and index out of range on a new claim.
		u.think = sim.NewWorker(1, b.ThinkMedianSeconds, b.ThinkSigma, streamID(2))
		u.inner = &liveTruthUser{u: u, p: b.ErrorP, rng: stats.NewRNG(streamID(3))}
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

// liveTruthUser is the ingesting kind's verdict source: it answers
// from the owning fleetUser's truth slice at call time (the slice
// grows with every posted delta), flipping the verdict with
// probability p exactly like sim.Erroneous.
type liveTruthUser struct {
	u   *fleetUser
	p   float64
	rng *stats.RNG
}

func (l *liveTruthUser) Validate(c int) (bool, bool) {
	v := l.u.truth[c]
	if l.p > 0 && l.rng.Bernoulli(l.p) {
		v = !v
	}
	return v, true
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
func (u *fleetUser) open(t Target, rec *recorder) (float64, error) {
	var info service.SessionInfo
	err := rec.timed(opOpen, func() error {
		var err error
		u.sess, info, err = t.Open(u.session)
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
		next, err = u.sess.Next(1)
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
		st, err = u.sess.Answer(req)
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
// done. The local ground truth and virtual corpus shape are extended
// whether the server applied the delta inline or queued it — the
// mailbox is FIFO and drains before the session's next guidance work,
// so by the time any new claim can be offered as a candidate its truth
// is in place.
func (u *fleetUser) ingest(rec *recorder) bool {
	seed := stats.StreamSeed(uint64(u.ingestBase), uint64(u.ingests))
	d := synth.GenerateDelta(u.deltaProf, u.behavior.IngestScale, seed)
	err := rec.timed(opIngest, func() error {
		_, err := u.sess.Ingest(service.IngestRequest{Delta: d})
		return err
	})
	if err != nil {
		u.outcome = outcomeFailed
		return false
	}
	u.truth = append(u.truth, d.Truth...)
	u.deltaProf.Claims += d.NewClaims
	u.deltaProf.Sources += len(d.Sources)
	u.deltaProf.Documents += len(d.Documents)
	u.ingests++
	u.sinceIngest = 0
	return true
}

// complete closes out a finished user: the session is deleted (freeing
// server resources) and the outcome recorded. A delete failure counts
// as an op error but the user still completed its work.
func (u *fleetUser) complete(rec *recorder) {
	_ = rec.timed(opDelete, func() error { return u.sess.Delete() })
	u.outcome = outcomeCompleted
}
