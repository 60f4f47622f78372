package workload

import (
	"context"

	"factcheck/internal/service"
)

// Target abstracts where a fleet's sessions live: the in-process
// serving stack (library runs, CI) or a live factcheck-server over HTTP
// (real load tests). Both paths go through service.Manager semantics,
// so a scenario measured in-process and over HTTP exercises the same
// protocol and inference work — HTTP adds only transport.
type Target interface {
	// Kind labels the target in reports: "library" or "http".
	Kind() string
	// Open creates one session for one simulated user.
	Open(req service.OpenRequest) (TargetSession, service.SessionInfo, error)
	// Metrics scrapes the server-side telemetry.
	Metrics(withBuckets bool) (service.Metrics, error)
	// Retries reports transport retries performed so far (HTTP only).
	Retries() int64
	// Close releases target resources owned by the workload runner.
	Close()
}

// TargetSession is one user's handle on its session.
type TargetSession interface {
	Next(k int) (service.NextResponse, error)
	Answer(req service.AnswerRequest) (service.StateResponse, error)
	// Ingest streams a corpus delta into the live session (the
	// "ingesting" behavior kind drives it).
	Ingest(req service.IngestRequest) (service.IngestResponse, error)
	Delete() error
}

// ManagerTarget drives an in-process service.Manager — the core.Session
// library path behind the same session protocol the server speaks.
type ManagerTarget struct {
	m *service.Manager
}

// NewLibraryTarget builds a self-contained in-process target with the
// given shared worker budget (0 = GOMAXPROCS); Close shuts it down.
func NewLibraryTarget(workers, maxSessions int) *ManagerTarget {
	if maxSessions <= 0 {
		maxSessions = 1 << 16
	}
	m := service.NewManager(service.Config{Workers: workers, MaxSessions: maxSessions})
	return &ManagerTarget{m: m}
}

// Kind implements Target.
func (t *ManagerTarget) Kind() string { return "library" }

// Open implements Target.
func (t *ManagerTarget) Open(req service.OpenRequest) (TargetSession, service.SessionInfo, error) {
	info, err := t.m.Open(req)
	if err != nil {
		return nil, service.SessionInfo{}, err
	}
	return &managerSession{m: t.m, id: info.ID}, info, nil
}

// Metrics implements Target.
func (t *ManagerTarget) Metrics(withBuckets bool) (service.Metrics, error) {
	return t.m.Metrics(withBuckets), nil
}

// Retries implements Target; the in-process path has no transport.
func (t *ManagerTarget) Retries() int64 { return 0 }

// Close implements Target: the target owns its manager.
func (t *ManagerTarget) Close() { t.m.Shutdown() }

type managerSession struct {
	m  *service.Manager
	id string
}

func (s *managerSession) Next(k int) (service.NextResponse, error) {
	return s.m.NextCtx(context.Background(), s.id, k)
}
func (s *managerSession) Answer(req service.AnswerRequest) (service.StateResponse, error) {
	return s.m.AnswerCtx(context.Background(), s.id, req)
}
func (s *managerSession) Ingest(req service.IngestRequest) (service.IngestResponse, error) {
	return s.m.IngestCtx(context.Background(), s.id, req)
}
func (s *managerSession) Delete() error { return s.m.Delete(s.id) }

// ClientTarget drives a live factcheck-server through service.Client.
// The client retries transient connection errors under a bounded
// jittered backoff — a fleet run should ride out a server restart, and
// the retry count lands in the report.
type ClientTarget struct {
	c *service.Client
}

// NewClientTarget returns a target for the server at base (e.g.
// "http://127.0.0.1:8080"), with the loadtest retry policy installed.
func NewClientTarget(base string) *ClientTarget {
	c := service.NewClient(base)
	c.Retry = &service.RetryPolicy{MaxAttempts: 4}
	return &ClientTarget{c: c}
}

// Kind implements Target.
func (t *ClientTarget) Kind() string { return "http" }

// Client exposes the underlying client.
func (t *ClientTarget) Client() *service.Client { return t.c }

// Open implements Target.
func (t *ClientTarget) Open(req service.OpenRequest) (TargetSession, service.SessionInfo, error) {
	info, err := t.c.Open(req)
	if err != nil {
		return nil, service.SessionInfo{}, err
	}
	return &clientSession{c: t.c, id: info.ID}, info, nil
}

// Metrics implements Target.
func (t *ClientTarget) Metrics(withBuckets bool) (service.Metrics, error) {
	return t.c.Metrics(withBuckets)
}

// Retries implements Target.
func (t *ClientTarget) Retries() int64 { return t.c.Retries() }

// Close implements Target; the server is not ours to stop.
func (t *ClientTarget) Close() {}

type clientSession struct {
	c  *service.Client
	id string
}

func (s *clientSession) Next(k int) (service.NextResponse, error) { return s.c.Next(s.id, k) }
func (s *clientSession) Answer(req service.AnswerRequest) (service.StateResponse, error) {
	return s.c.Answer(s.id, req)
}
func (s *clientSession) Ingest(req service.IngestRequest) (service.IngestResponse, error) {
	// The HTTP surface splits ingestion by payload: deltas carrying new
	// claims go to /claims, source/evidence-only deltas to /sources.
	if req.Delta.NewClaims > 0 {
		return s.c.IngestClaims(s.id, req)
	}
	return s.c.IngestSources(s.id, req)
}
func (s *clientSession) Delete() error { return s.c.Delete(s.id) }
