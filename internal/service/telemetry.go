package service

import (
	"maps"
	"time"

	"factcheck/internal/obs"
)

// Metrics assembles the load-telemetry snapshot behind GET /metrics.
// withBuckets adds the raw answer-latency buckets to the digest.
func (m *Manager) Metrics(withBuckets bool) Metrics {
	out := Metrics{
		BackendID:      m.cfg.BackendID,
		Sessions:       m.Len(),
		Spilled:        m.Spilled(),
		WorkersTotal:   m.budget.Total(),
		WorkersGranted: m.budget.InUse(),
		LaneWaits:      m.budget.Waits(),
		MailboxQueued:  m.mailboxQueued(),
		TableBuilds:    m.tableBuilds.Load(),
	}
	if m.slo != nil {
		st := m.slo.Status(m.nowSec(), m.waitsNow())
		out.Controller = &st
	}
	out.Stages = m.stages.Summaries()
	if withBuckets {
		out.StageBuckets = m.stages.Buckets()
	}
	t := &m.telemetry
	t.Lock()
	defer t.Unlock()
	out.SessionsOpened = t.sessionsOpened
	out.AnswersServed = t.answersServed
	out.AnswerLatency = t.answerLatency.Summary()
	out.GainCacheHits = t.gainHits
	out.GainCacheMisses = t.gainMisses
	out.RestoresImage = t.restoresImage
	out.ImageBytesWritten = t.imageBytes
	if len(t.restoresReplay) > 0 {
		out.RestoresReplay = maps.Clone(t.restoresReplay)
	}
	if withBuckets {
		out.AnswerLatencyBuckets = t.answerLatency.Buckets()
	}
	if len(t.endpoints) > 0 {
		out.Endpoints = make(map[string]EndpointCounters, len(t.endpoints))
		for k, v := range t.endpoints {
			out.Endpoints[k] = v
		}
	}
	return out
}

// RecordEndpoint folds one API request into the per-endpoint counters
// behind /metrics; the HTTP layer calls it for every routed request.
func (m *Manager) RecordEndpoint(endpoint string, isError bool) {
	t := &m.telemetry
	t.Lock()
	c := t.endpoints[endpoint]
	c.Requests++
	if isError {
		c.Errors++
	}
	t.endpoints[endpoint] = c
	t.Unlock()
}

// recordAnswer folds one successful answer into the telemetry.
func (m *Manager) recordAnswer(seconds float64) {
	t := &m.telemetry
	t.Lock()
	t.answersServed++
	t.answerLatency.Add(seconds)
	t.Unlock()
}

// recordRestore folds one session rebuild into the telemetry: which
// durable form it was built from, and how long the whole rebuild took —
// corpus regeneration, lane wait and core.RestoreSession (the restore
// stage; wall-clocked like every span).
func (m *Manager) recordRestore(s *Session, trace string, start time.Time) {
	m.observeSpan(s, trace, obs.StageRestore, start)
	r := s.core.Restored()
	t := &m.telemetry
	t.Lock()
	if r.Image {
		t.restoresImage++
	} else {
		t.restoresReplay[r.Reason]++
	}
	t.Unlock()
}

// mailboxQueued sums the deltas currently queued across live sessions'
// mailboxes. It takes only boxMu per session (never s.mu), so the
// scrape cannot stall behind inference.
func (m *Manager) mailboxQueued() int {
	m.mu.Lock()
	sessions := m.liveLocked()
	m.mu.Unlock()
	n := 0
	for _, s := range sessions {
		s.boxMu.Lock()
		n += len(s.box)
		s.boxMu.Unlock()
	}
	return n
}

// observeSpan records one finished stage: into the manager's per-stage
// histograms, and into the session's span ring when a session is in
// hand. Wall-clocked with time.Now directly — never through nowFn,
// whose test fakes advance per call and would perturb timings the
// tests assert on.
func (m *Manager) observeSpan(s *Session, trace, stage string, start time.Time) {
	d := time.Since(start).Seconds()
	m.stages.Observe(stage, d)
	if s != nil && s.spans != nil {
		s.spans.Append(obs.Span{Trace: trace, Stage: stage, Start: start.UnixNano(), Seconds: d})
	}
}

// sampleGainCache folds the session's gain-cache counter growth since
// the last sample into the manager's cumulative telemetry; s.mu must
// be held (the cache's counters are written by scoring under the same
// lock).
func (m *Manager) sampleGainCache(s *Session) {
	gc := s.core.GainCache()
	if gc == nil {
		return
	}
	h, mi := gc.Hits(), gc.Misses()
	dh, dm := h-s.gcHits, mi-s.gcMisses
	s.gcHits, s.gcMisses = h, mi
	if dh == 0 && dm == 0 {
		return
	}
	t := &m.telemetry
	t.Lock()
	t.gainHits += dh
	t.gainMisses += dm
	t.Unlock()
}

// Trace returns the session's span ring. Live sessions only: a trace
// read is a diagnostic and must not revive a spilled session (the ring
// is per-process and would be empty anyway), bump its idle clock, or
// wait behind inference.
func (m *Manager) Trace(id string) (TraceResponse, error) {
	m.mu.Lock()
	var s *Session
	if sl := m.slots[id]; sl != nil {
		s = sl.sess
	}
	m.mu.Unlock()
	if s == nil {
		return TraceResponse{}, ErrNotFound
	}
	spans := s.spans.Snapshot()
	if spans == nil {
		spans = []obs.Span{}
	}
	return TraceResponse{ID: id, Spans: spans}, nil
}
