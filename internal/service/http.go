package service

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"strconv"

	"factcheck/internal/edge"
	"factcheck/internal/obs"
)

// ErrorInfo is the payload of the API's JSON error envelope.
type ErrorInfo = edge.ErrorInfo

// Server exposes a Manager over HTTP.
type Server struct {
	m   *Manager
	log *slog.Logger
}

// NewServer wraps a manager.
func NewServer(m *Manager) *Server { return &Server{m: m, log: obs.Discard()} }

// SetLogger installs a structured logger for the API layer (call it
// before Handler): every 4xx/5xx response is logged at warn with its
// envelope code, trace id, method, path and session id, and every
// served request at debug. nil restores the silent default.
func (s *Server) SetLogger(l *slog.Logger) {
	if l == nil {
		l = obs.Discard()
	}
	s.log = l
}

// Handler returns the API's routing handler: the route table mounted
// by the shared edge (edge.Mount).
func (s *Server) Handler() http.Handler {
	return edge.Mount(s.routes(), s.log, s.m.RecordEndpoint, slog.String("backend", s.m.cfg.BackendID))
}

// routes is the endpoint reference: all bodies are JSON and every row
// is served under /v1. Endpoint names the row in the per-endpoint
// counters of /metrics — what a shard router's fleet view attributes
// load with.
func (s *Server) routes() []edge.Route {
	return []edge.Route{
		// Open a session (OpenRequest), or restore one ({"restore":
		// SessionSnapshot}); an "id" field pins the session id — how a
		// shard router keeps placement consistent with its hash ring.
		{Method: "POST", Path: "/sessions", Endpoint: "open", Handler: s.create},
		// Ids of every session this backend owns, split into live and stored.
		{Method: "GET", Path: "/sessions", Endpoint: "list", Handler: s.list},
		// ?k=K: the top-k guidance ranking (NextResponse).
		{Method: "GET", Path: "/sessions/{id}/next", Endpoint: "next", Handler: s.next},
		// Submit a verdict (AnswerRequest → StateResponse).
		{Method: "POST", Path: "/sessions/{id}/answer", Endpoint: "answer", Handler: s.answer},
		// Progress; ?marginals=1 adds the per-claim marginals.
		{Method: "GET", Path: "/sessions/{id}/state", Endpoint: "state", Handler: s.state},
		// The durable SessionSnapshot.
		{Method: "GET", Path: "/sessions/{id}/snapshot", Endpoint: "snapshot", Handler: s.snapshot},
		// Freeze the session for migration and return its portable record.
		{Method: "GET", Path: "/sessions/{id}/export", Endpoint: "export", Handler: s.export},
		// Install an exported session under id.
		{Method: "POST", Path: "/sessions/{id}/import", Endpoint: "import", Handler: s.importSession},
		// Close and remove the session.
		{Method: "DELETE", Path: "/sessions/{id}", Endpoint: "delete", Handler: s.delete},
		// Stream a corpus delta into the live session (IngestRequest →
		// IngestResponse): 200 = applied, 202 = queued in the session's
		// mailbox. /sources is the same restricted to deltas that
		// introduce no claims (new sources and evidence on existing
		// claims), so producers that only ever contribute sources get a
		// surface that rejects claim-bearing payloads.
		{Method: "POST", Path: "/sessions/{id}/claims", Endpoint: "ingest", Handler: s.ingest(false)},
		{Method: "POST", Path: "/sessions/{id}/sources", Endpoint: "ingest", Handler: s.ingest(true)},
		// The session's recent request spans (TraceResponse): the last
		// spanRingCap, oldest first, each under its request's trace id.
		{Method: "GET", Path: "/sessions/{id}/trace", Endpoint: "trace", Handler: s.trace},
		// Liveness + load.
		{Method: "GET", Path: "/healthz", Handler: s.health},
		// Serving telemetry (Metrics); ?buckets=1 adds the raw latency
		// buckets, ?format=prometheus serves the text exposition instead.
		{Method: "GET", Path: "/metrics", Handler: s.metrics},
	}
}

// reply writes a manager call's outcome: v under status, or the error
// mapped onto its envelope.
func reply(w http.ResponseWriter, status int, v any, err error) {
	if err != nil {
		writeServiceError(w, err)
		return
	}
	edge.WriteJSON(w, status, v)
}

// createPayload is the POST /sessions body: either a plain OpenRequest
// or {"restore": snapshot}, optionally pinned to a caller-chosen id.
type createPayload struct {
	OpenRequest
	// ID pins the session id instead of drawing a random one. A shard
	// router sets it so the id it hashed onto the ring is the id the
	// owning backend serves under.
	ID      string           `json:"id,omitempty"`
	Restore *SessionSnapshot `json:"restore,omitempty"`
}

func (s *Server) create(w http.ResponseWriter, r *http.Request) {
	var body createPayload
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeServiceError(w, err)
		return
	}
	var (
		info SessionInfo
		err  error
	)
	switch {
	case body.Restore != nil && body.ID != "":
		info, err = s.m.Import(body.ID, *body.Restore)
	case body.Restore != nil:
		info, err = s.m.Restore(*body.Restore)
	case body.ID != "":
		info, err = s.m.OpenAs(body.ID, body.OpenRequest)
	default:
		info, err = s.m.Open(body.OpenRequest)
	}
	reply(w, http.StatusCreated, info, err)
}

func (s *Server) list(w http.ResponseWriter, _ *http.Request) {
	ids, err := s.m.Sessions()
	reply(w, http.StatusOK, ids, err)
}

func (s *Server) next(w http.ResponseWriter, r *http.Request) {
	k := 1
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			writeServiceError(w, errors.New("service: k must be a positive integer"))
			return
		}
		k = n
	}
	resp, err := s.m.NextCtx(r.Context(), r.PathValue("id"), k)
	reply(w, http.StatusOK, resp, err)
}

func (s *Server) answer(w http.ResponseWriter, r *http.Request) {
	var req AnswerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeServiceError(w, err)
		return
	}
	resp, err := s.m.AnswerCtx(r.Context(), r.PathValue("id"), req)
	reply(w, http.StatusOK, resp, err)
}

// ingest serves both streaming endpoints; sourcesOnly is the /sources
// restriction (no new claims).
func (s *Server) ingest(sourcesOnly bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req IngestRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeServiceError(w, err)
			return
		}
		if sourcesOnly && req.Delta.NewClaims != 0 {
			writeServiceError(w, errors.New("service: the sources endpoint cannot introduce claims; POST .../claims"))
			return
		}
		resp, err := s.m.IngestCtx(r.Context(), r.PathValue("id"), req)
		status := http.StatusOK
		if !resp.Applied {
			// Queued, not yet in the transcript: 202 tells the producer the
			// delta was accepted but its effects are not observable yet.
			status = http.StatusAccepted
		}
		reply(w, status, resp, err)
	}
}

// trace serves the session's span ring. Live sessions only — a
// diagnostic read neither revives a spilled session nor waits behind
// inference.
func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	resp, err := s.m.Trace(r.PathValue("id"))
	reply(w, http.StatusOK, resp, err)
}

func (s *Server) state(w http.ResponseWriter, r *http.Request) {
	resp, err := s.m.State(r.PathValue("id"), edge.BoolQuery(r, "marginals"))
	reply(w, http.StatusOK, resp, err)
}

func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) {
	snap, err := s.m.Snapshot(r.PathValue("id"))
	reply(w, http.StatusOK, snap, err)
}

func (s *Server) export(w http.ResponseWriter, r *http.Request) {
	snap, err := s.m.Export(r.PathValue("id"))
	reply(w, http.StatusOK, snap, err)
}

func (s *Server) importSession(w http.ResponseWriter, r *http.Request) {
	var snap SessionSnapshot
	if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
		writeServiceError(w, err)
		return
	}
	info, err := s.m.Import(r.PathValue("id"), snap)
	reply(w, http.StatusCreated, info, err)
}

func (s *Server) delete(w http.ResponseWriter, r *http.Request) {
	reply(w, http.StatusOK, map[string]bool{"deleted": true}, s.m.Delete(r.PathValue("id")))
}

func (s *Server) health(w http.ResponseWriter, _ *http.Request) {
	edge.WriteJSON(w, http.StatusOK, Health{
		Sessions:       s.m.Len(),
		Spilled:        s.m.Spilled(),
		WorkersTotal:   s.m.Budget().Total(),
		WorkersGranted: s.m.Budget().InUse(),
		Store:          s.m.StoreLocation(),
		ControllerMode: s.m.ControllerMode(),
	})
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	// ?format=prometheus serves the text exposition a standard scraper
	// understands; the default stays the JSON blob the loadtest and the
	// fleet aggregation scrape.
	if r.URL.Query().Get("format") == "prometheus" {
		WritePrometheus(w, s.m.Metrics(true))
		return
	}
	edge.WriteJSON(w, http.StatusOK, s.m.Metrics(edge.BoolQuery(r, "buckets")))
}
