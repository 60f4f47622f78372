package main

import (
	"context"
	"fmt"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/factdb"
	"factcheck/internal/service"
	"factcheck/internal/synth"
)

// target is the five-call protocol a session script speaks. The same
// script runs against every layer of the stack — the library
// (coreTarget), the session manager (managerTarget) and the HTTP API
// directly or through the router (client) — which is what lets the
// ladder price each layer on a bit-identical session, and the output
// check compare the served claim sequence with the library's. Every
// call returns its own latency in milliseconds.
type target interface {
	open(id string, req service.OpenRequest) (service.SessionInfo, float64, error)
	next(id string) (service.NextResponse, float64, error)
	answer(id string, req service.AnswerRequest) (service.StateResponse, float64, error)
	ingest(id string, d factdb.Delta) (service.IngestResponse, float64, error)
	delete(id string) (float64, error)
}

func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return float64(time.Since(start)) / float64(time.Millisecond), err
}

// client implements target over the HTTP API.

func (c *client) open(id string, req service.OpenRequest) (info service.SessionInfo, ms float64, err error) {
	ms, err = c.do("open", id, func() (err error) { info, err = c.api.OpenAs(id, req); return })
	return
}

func (c *client) next(id string) (resp service.NextResponse, ms float64, err error) {
	ms, err = c.do("next", id, func() (err error) { resp, err = c.api.Next(id, 1); return })
	return
}

func (c *client) answer(id string, req service.AnswerRequest) (resp service.StateResponse, ms float64, err error) {
	ms, err = c.do("answer", id, func() (err error) { resp, err = c.api.Answer(id, req); return })
	return
}

func (c *client) ingest(id string, d factdb.Delta) (resp service.IngestResponse, ms float64, err error) {
	ms, err = c.do("ingest", id, func() (err error) {
		resp, err = c.api.IngestClaims(id, service.IngestRequest{Delta: d})
		return
	})
	return
}

func (c *client) delete(id string) (float64, error) {
	return c.do("delete", id, func() error { return c.api.Delete(id) })
}

// managerTarget implements target over a service.Manager called
// in-process: the serving layer without HTTP.
type managerTarget struct{ m *service.Manager }

func (t managerTarget) open(id string, req service.OpenRequest) (info service.SessionInfo, ms float64, err error) {
	ms, err = timed(func() (err error) { info, err = t.m.OpenAs(id, req); return })
	return
}

func (t managerTarget) next(id string) (resp service.NextResponse, ms float64, err error) {
	ms, err = timed(func() (err error) { resp, err = t.m.NextCtx(context.Background(), id, 1); return })
	return
}

func (t managerTarget) answer(id string, req service.AnswerRequest) (resp service.StateResponse, ms float64, err error) {
	ms, err = timed(func() (err error) { resp, err = t.m.AnswerCtx(context.Background(), id, req); return })
	return
}

func (t managerTarget) ingest(id string, d factdb.Delta) (resp service.IngestResponse, ms float64, err error) {
	ms, err = timed(func() (err error) {
		resp, err = t.m.IngestCtx(context.Background(), id, service.IngestRequest{Delta: d})
		return
	})
	return
}

func (t managerTarget) delete(id string) (float64, error) {
	return timed(func() error { return t.m.Delete(id) })
}

// coreTarget implements target over core.Session directly — the
// library path: the corpus and options the server would build for the
// request, an oracle over a truth vector that grows with every ingested
// delta, Step for an answer and Pending for the ranking that follows
// it. It holds one session.
type coreTarget struct {
	s     *core.Session
	truth []bool
}

func (t *coreTarget) Validate(c int) (bool, bool) { return t.truth[c], true }

func (t *coreTarget) open(_ string, req service.OpenRequest) (info service.SessionInfo, ms float64, err error) {
	ms, err = timed(func() error {
		opts, err := service.BuildOptions(req)
		if err != nil {
			return err
		}
		corpus, err := service.BuildCorpus(req)
		if err != nil {
			return err
		}
		return t.openOn(corpus, opts)
	})
	if err == nil {
		db := t.s.DB
		info = service.SessionInfo{
			Claims: db.NumClaims, Sources: len(db.Sources), Documents: len(db.Documents),
			Precision: t.s.Precision(t.truth),
		}
	}
	return
}

// openOn opens the session over an already built corpus, with the
// worker grant an idle 2-lane manager hands a lone request.
func (t *coreTarget) openOn(corpus *synth.Corpus, opts core.Options) error {
	opts.Workers = 2
	s, err := core.OpenSession(corpus.DB, opts)
	t.s, t.truth = s, corpus.Truth
	return err
}

func (t *coreTarget) next(string) (resp service.NextResponse, ms float64, err error) {
	ms, err = timed(func() error {
		rank, err := t.s.Pending(1)
		resp = service.NextResponse{Seq: t.s.TranscriptLen(), Done: len(rank) == 0}
		if len(rank) > 0 {
			resp.Candidates = []service.Candidate{{Claim: rank[0]}}
		}
		return err
	})
	return
}

func (t *coreTarget) answer(_ string, req service.AnswerRequest) (resp service.StateResponse, ms float64, err error) {
	ms, err = timed(func() error {
		rank, err := t.s.Pending(1)
		if err != nil {
			return err
		}
		if len(rank) == 0 || rank[0] != req.Claim {
			return fmt.Errorf("library path expects claim %v, script answered %d", rank, req.Claim)
		}
		t.s.Step(t)
		rank, err = t.s.Pending(1)
		resp = service.StateResponse{
			Effort: t.s.Effort(), Precision: t.s.Precision(t.truth),
			Seq: t.s.TranscriptLen(), Expected: -1, Done: len(rank) == 0,
		}
		if len(rank) > 0 {
			resp.Expected = rank[0]
		}
		return err
	})
	return
}

func (t *coreTarget) ingest(_ string, d factdb.Delta) (resp service.IngestResponse, ms float64, err error) {
	ms, err = timed(func() error {
		_, err := t.s.Ingest(d)
		t.truth = append(t.truth, d.Truth...)
		db := t.s.DB
		resp = service.IngestResponse{
			Applied: true, Seq: t.s.TranscriptLen(),
			Claims: db.NumClaims, Sources: len(db.Sources), Documents: len(db.Documents),
		}
		return err
	})
	return
}

func (t *coreTarget) delete(string) (float64, error) {
	return timed(func() error { return t.s.Close() })
}
