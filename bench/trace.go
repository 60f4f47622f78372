package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/obs"
	"factcheck/internal/persist"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's own files: client.<op> around a service.Client call,
// router.handle and server.handle around the two HTTP handlers,
// persist.<call> around a persist.Store method. Spans of one request
// share its trace id; Parent is the span that caused this one (-1 for
// a root), resolved by link after the pass.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   string `json:"trace,omitempty"`
	Name    string `json:"name"`
	Session string `json:"session,omitempty"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"startNs"`
	End   int64 `json:"endNs"`
	// Bytes is the record size a persist.append / persist.checkpoint
	// span wrote.
	Bytes int `json:"bytes,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder keeps the traced pass's spans in memory; they are linked
// and written out when the pass ends.
type recorder struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	clients int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(s span, start, end time.Time) {
	s.Parent = -1
	s.Start = int64(start.Sub(r.epoch))
	s.End = int64(end.Sub(r.epoch))
	r.mu.Lock()
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// clientPrefix hands each client a distinct trace-id prefix.
func (r *recorder) clientPrefix() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clients++
	return fmt.Sprintf("c%03d", r.clients)
}

// reset drops the spans recorded so far (the warm-up session's).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// tracedHandler records one span per request served by h.
func tracedHandler(name string, h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		rec.add(span{
			Trace:   r.Header.Get(obs.TraceHeader),
			Name:    name,
			Session: sessionOfPath(r.URL.Path),
		}, start, time.Now())
	})
}

// sessionOfPath extracts {id} from /v1/sessions/{id}[/...]; "" for
// every other path (session creation included — link recovers its
// session from the client span of the same trace).
func sessionOfPath(p string) string {
	rest, ok := strings.CutPrefix(p, "/v1/sessions/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// tracedStore is the persist.Store wrapper of the traced pass: every
// call becomes a persist.<call> span, results and errors pass through
// untouched. It forwards persist.Locator, which the router relies on
// to recognise backends that share a data directory.
type tracedStore struct {
	inner persist.Store
	rec   *recorder
}

func (t *tracedStore) record(call, id string, start time.Time) {
	t.rec.add(span{Name: "persist." + call, Session: id}, start, time.Now())
}

// jsonLen is the encoded size of v plus the newline FileStore writes
// after it; the WAL line and checkpoint shapes below mirror FileStore's.
func jsonLen(v any) int {
	buf, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	return len(buf) + 1
}

func (t *tracedStore) Checkpoint(id string, rec persist.Record) error {
	start := time.Now()
	err := t.inner.Checkpoint(id, rec)
	end := time.Now()
	rec.Version = persist.Version
	t.rec.add(span{Name: "persist.checkpoint", Session: id, Bytes: jsonLen(rec)}, start, end)
	return err
}

func (t *tracedStore) Append(id string, seq int, e core.Elicitation) error {
	start := time.Now()
	err := t.inner.Append(id, seq, e)
	end := time.Now()
	line := struct {
		Seq int `json:"seq"`
		core.Elicitation
	}{seq, e}
	t.rec.add(span{Name: "persist.append", Session: id, Bytes: jsonLen(line)}, start, end)
	return err
}

func (t *tracedStore) Load(id string) (persist.Record, bool, error) {
	start := time.Now()
	rec, ok, err := t.inner.Load(id)
	t.record("load", id, start)
	return rec, ok, err
}

func (t *tracedStore) Delete(id string) error {
	start := time.Now()
	err := t.inner.Delete(id)
	t.record("delete", id, start)
	return err
}

func (t *tracedStore) List() ([]string, error) {
	start := time.Now()
	ids, err := t.inner.List()
	t.record("list", "", start)
	return ids, err
}

func (t *tracedStore) Close() error { return t.inner.Close() }

func (t *tracedStore) Location() string {
	if l, ok := t.inner.(persist.Locator); ok {
		return l.Location()
	}
	return ""
}

// link resolves every span's Parent in place: a router.handle span
// hangs under the client span of its trace, a server.handle span under
// the router span of its trace (the client span when no router is in
// the path), and a persist span under the server.handle span of its
// session whose interval contains it — one session has one client, so
// its requests never overlap. Spans without a causing span in the set
// (migration hops the router mints its own trace ids for, spills
// driven by the benchmark) stay roots.
func link(spans []span) {
	clientOf := map[string]int{}
	routerOf := map[string]int{}
	for i, s := range spans {
		switch {
		case s.Trace == "":
		case strings.HasPrefix(s.Name, "client."):
			clientOf[s.Trace] = i
		case s.Name == "router.handle":
			routerOf[s.Trace] = i
		}
	}
	serverBySession := map[string][]int{}
	for i := range spans {
		s := &spans[i]
		c, hasClient := clientOf[s.Trace]
		switch s.Name {
		case "router.handle":
			if hasClient {
				s.Parent = c
			}
		case "server.handle":
			if r, ok := routerOf[s.Trace]; ok {
				s.Parent = r
			} else if hasClient {
				s.Parent = c
			}
			if s.Session == "" && hasClient {
				s.Session = spans[c].Session
			}
			serverBySession[s.Session] = append(serverBySession[s.Session], i)
		}
	}
	for _, idx := range serverBySession {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for i := range spans {
		s := &spans[i]
		if !strings.HasPrefix(s.Name, "persist.") {
			continue
		}
		idx := serverBySession[s.Session]
		// The last server span of the session starting at or before s.
		j := sort.Search(len(idx), func(k int) bool { return spans[idx[k]].Start > s.Start }) - 1
		if j >= 0 && spans[idx[j]].End >= s.End {
			s.Parent = idx[j]
		}
	}
}

// selfSeconds returns each span's self time: its duration minus the
// part of its interval its child spans cover (children are clipped to
// the parent and overlapping children are not counted twice).
func selfSeconds(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, at), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// writeSpans writes the linked spans of one workload to
// <dir>/trace-<workload>.json.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(buf, '\n'), 0o644)
}
