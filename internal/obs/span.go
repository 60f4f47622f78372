package obs

import (
	"sync"

	"factcheck/internal/stats"
)

// Stage names for the answer path's span decomposition. An answer
// decomposes, in order, into: waiting for worker lanes
// (StageLaneAcquire), folding queued corpus arrivals in
// (StageIngestApply), the Gibbs resampling step that applies the
// verdict (StageResample), the dirty-component what-if re-ranking that
// warms the next question (StageRescore), and the WAL append that
// makes the elicitation durable before the response leaves
// (StageWALAppend). StageAnswer is the whole path, lock wait included
// — the span the answer-latency SLO is defined over. StageRestore sits
// outside the answer path: rebuilding a session from its durable form
// (revive of a spilled session, import, snapshot restore) — corpus
// regeneration included — which the first request to a non-resident
// session pays before anything else.
const (
	StageLaneAcquire = "lane_acquire"
	StageIngestApply = "ingest_apply"
	StageResample    = "resample"
	StageRescore     = "rescore"
	StageWALAppend   = "wal_append"
	StageAnswer      = "answer"
	StageRestore     = "restore"
)

// Span is one timed stage of one request, as served at
// GET /v1/sessions/{id}/trace.
type Span struct {
	// Trace is the request's trace id ("" for untraced internal work).
	Trace string `json:"trace,omitempty"`
	// Stage names the stage (the Stage* constants).
	Stage string `json:"stage"`
	// Start is the stage's start time, Unix nanoseconds.
	Start int64 `json:"startUnixNano"`
	// Seconds is the stage's duration.
	Seconds float64 `json:"seconds"`
}

// Ring is a bounded, concurrency-safe span buffer: the newest spans
// win, the oldest fall off. One ring hangs off every live session, so
// "why was this answer slow?" is answerable after the fact without any
// log pipeline — at a fixed per-session memory cost that does not grow
// with uptime.
type Ring struct {
	mu    sync.Mutex
	spans []Span
	next  int
	full  bool
}

// NewRing returns a ring holding the last n spans (n < 1 is treated
// as 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{spans: make([]Span, n)}
}

// Append records one span, evicting the oldest when full.
func (r *Ring) Append(s Span) {
	r.mu.Lock()
	r.spans[r.next] = s
	r.next++
	if r.next == len(r.spans) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Snapshot returns the buffered spans, oldest first.
func (r *Ring) Snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]Span, r.next)
		copy(out, r.spans[:r.next])
		return out
	}
	out := make([]Span, 0, len(r.spans))
	out = append(out, r.spans[r.next:]...)
	out = append(out, r.spans[:r.next]...)
	return out
}

// Len reports the number of buffered spans.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.spans)
	}
	return r.next
}

// Stages aggregates span durations into one latency histogram per
// stage name. Safe for concurrent use; the histograms are the source
// of the factcheck_stage_latency_seconds exposition.
type Stages struct {
	mu sync.Mutex
	h  map[string]*stats.LogHist
}

// NewStages returns an empty per-stage aggregate.
func NewStages() *Stages {
	return &Stages{h: make(map[string]*stats.LogHist)}
}

// Observe folds one stage duration (seconds) in.
func (st *Stages) Observe(stage string, seconds float64) {
	st.mu.Lock()
	h := st.h[stage]
	if h == nil {
		h = stats.NewLogHist()
		st.h[stage] = h
	}
	h.Add(seconds)
	st.mu.Unlock()
}

// Summaries digests every stage's histogram.
func (st *Stages) Summaries() map[string]stats.Summary {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.h) == 0 {
		return nil
	}
	out := make(map[string]stats.Summary, len(st.h))
	for k, h := range st.h {
		out[k] = h.Summary()
	}
	return out
}

// Buckets exports every stage's raw histogram buckets.
func (st *Stages) Buckets() map[string][]stats.HistBucket {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.h) == 0 {
		return nil
	}
	out := make(map[string][]stats.HistBucket, len(st.h))
	for k, h := range st.h {
		out[k] = h.Buckets()
	}
	return out
}
