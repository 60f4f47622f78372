package main

import (
	"fmt"

	"factcheck/internal/service"
	"factcheck/internal/stats"
	"factcheck/internal/synth"
)

// samples are the latencies (ms) and counts one script run collects;
// each client goroutine fills its own and they are merged afterwards.
type samples struct {
	answer, open, revive, ingest []float64
	deltas, queued               int // deltas posted; those answered 202 (queued, not applied)
}

func (a *samples) merge(b samples) {
	a.answer = append(a.answer, b.answer...)
	a.open = append(a.open, b.open...)
	a.revive = append(a.revive, b.revive...)
	a.ingest = append(a.ingest, b.ingest...)
	a.deltas += b.deltas
	a.queued += b.queued
}

// session is one scripted validation session: the state a closed-loop
// client carries between its requests.
type session struct {
	id  string
	req service.OpenRequest
	// claims is the claim sequence the session answered — what the
	// trace digest hashes and the library-path check compares.
	claims []int
	// expected/seq/done follow the server's responses: the claim the
	// loop asks next, the transcript position it commits at, and
	// whether anything is left to ask.
	expected, seq int
	done          bool
	// effortP90 is the effort at which precision first reached 0.9
	// (-1 while it has not).
	effortP90 float64
	// shape is the corpus shape deltas are generated at, kept current
	// from the server's responses; deltas counts those posted.
	shape  synth.Profile
	deltas int
	// failed marks a session whose script hit an error; later waves
	// skip it.
	failed bool
}

func newSession(w spec, seed int64, workload, i int) *session {
	return &session{id: w.sessionID(i), req: w.request(seed, workload, i), effortP90: -1, expected: -1}
}

func (s *session) follow(next service.NextResponse) {
	s.seq, s.done, s.expected = next.Seq, next.Done || len(next.Candidates) == 0, -1
	if !s.done {
		s.expected = next.Candidates[0].Claim
	}
}

// start opens the session and fetches its first question; the two
// requests together are the time-to-first-question sample.
func (s *session) start(t target, m *samples) error {
	info, openMs, err := t.open(s.id, s.req)
	if err != nil {
		return err
	}
	prof, err := synth.ByName(s.req.Profile)
	if err != nil {
		return err
	}
	prof.Claims, prof.Sources, prof.Documents = info.Claims, info.Sources, info.Documents
	s.shape = prof
	if info.Precision >= 0.9 {
		s.effortP90 = 0
	}
	next, nextMs, err := t.next(s.id)
	if err != nil {
		return err
	}
	m.open = append(m.open, openMs+nextMs)
	s.follow(next)
	return nil
}

// answers submits up to n oracle answers (n <= 0: until the session is
// done), following the expected claim from response to response.
func (s *session) answers(t target, m *samples, n int) error {
	for k := 0; !s.done && (n <= 0 || k < n); k++ {
		seq := s.seq
		st, ms, err := t.answer(s.id, service.AnswerRequest{Claim: s.expected, Oracle: true, Seq: &seq})
		if err != nil {
			return err
		}
		m.answer = append(m.answer, ms)
		s.claims = append(s.claims, s.expected)
		if s.effortP90 < 0 && st.Precision >= 0.9 {
			s.effortP90 = st.Effort
		}
		s.expected, s.seq, s.done = st.Expected, st.Seq, st.Done
	}
	return nil
}

// ingest posts the session's next corpus delta and fetches the ranking
// that includes it. The sample spans both requests, so it reads the
// same whether the server applied the delta inline or queued it for
// the next worker-holding request.
func (s *session) ingest(t target, m *samples) error {
	d := synth.GenerateDelta(s.shape, deltaFrac, stats.StreamSeed(uint64(s.req.Seed), uint64(s.deltas)))
	s.deltas++
	resp, postMs, err := t.ingest(s.id, d)
	if err != nil {
		return err
	}
	m.deltas++
	if !resp.Applied {
		m.queued++
	}
	s.shape.Claims, s.shape.Sources, s.shape.Documents = resp.Claims, resp.Sources, resp.Documents
	next, nextMs, err := t.next(s.id)
	if err != nil {
		return err
	}
	m.ingest = append(m.ingest, postMs+nextMs)
	s.follow(next)
	return nil
}

// resume is the first request to a spilled session: the GET next that
// revives it from the store. The question it returns must be the one
// the last answer before the spill announced — an acknowledged answer
// lost across spill and revive would show here.
func (s *session) resume(t target, m *samples) error {
	want := s.expected
	next, ms, err := t.next(s.id)
	if err != nil {
		return err
	}
	m.revive = append(m.revive, ms)
	s.follow(next)
	if s.expected != want {
		return fmt.Errorf("session %s revived asking claim %d, but its last answer before the spill announced claim %d", s.id, s.expected, want)
	}
	return nil
}

// run is the whole script of a direct (non-fleet) session.
func (s *session) run(t target, m *samples, w spec) error {
	if err := s.start(t, m); err != nil {
		return err
	}
	if w.rounds == 0 {
		return s.answers(t, m, w.answers)
	}
	if err := s.answers(t, m, w.warm); err != nil {
		return err
	}
	for r := 0; r < w.rounds; r++ {
		if err := s.answers(t, m, w.perRound); err != nil {
			return err
		}
		if err := s.ingest(t, m); err != nil {
			return err
		}
	}
	return nil
}

// waveA and waveB are the fleet script's halves, run on either side of
// the spill of every session.
func (s *session) waveA(t target, m *samples, w spec) error {
	if err := s.start(t, m); err != nil {
		return err
	}
	return s.answers(t, m, w.answers)
}

func (s *session) waveB(t target, m *samples, w spec) error {
	if err := s.resume(t, m); err != nil {
		return err
	}
	if err := s.answers(t, m, w.answers); err != nil {
		return err
	}
	_, err := t.delete(s.id)
	return err
}
