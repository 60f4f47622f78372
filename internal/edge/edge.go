// Package edge is the HTTP edge both serving binaries mount: one
// table-driven route registration (the /v1 surface), one request
// middleware (trace id honored or minted, status and envelope code
// captured, endpoint counted, one structured log line per request),
// one JSON response writer and one error envelope. factcheck-server and
// factcheck-router each keep only a route table and handlers, so a
// client sees the same contract whichever layer answers.
//
// The package is a leaf: it imports internal/obs and the standard
// library, and knows nothing of sessions, placement or error codes —
// but for the one refusal it issues itself, CodeBodyTooLarge.
package edge

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strconv"

	"factcheck/internal/obs"
)

// Route is one row of a binary's route table.
type Route struct {
	// Method restricts the row to one HTTP method ("" = any; the
	// router's proxy rows forward whatever arrives).
	Method string
	// Path is the canonical path without its /v1 prefix, in
	// http.ServeMux pattern syntax.
	Path string
	// Endpoint names the row in the per-endpoint request counters. Rows
	// with an empty Endpoint (probe traffic: /healthz, /metrics) are
	// traced and logged but not counted.
	Endpoint string
	Handler  http.HandlerFunc
}

// MaxBodyBytes bounds every request body, so no one request can make a
// backend or the router buffer arbitrary bytes. It is sized from the
// admission bounds of service.BuildCorpus so that a legal import still
// fits: the largest body is the record of a session whose corpus reached
// those bounds delta by delta — 400 000 document rows at ≈ 154 B of JSON
// and 200 000 source rows at ≈ 113 B, 84 MB, beside 20 000 answers.
const MaxBodyBytes = 128 << 20

// CodeBodyTooLarge is the envelope code of the 413 that answers a body
// over MaxBodyBytes.
const CodeBodyTooLarge = "body_too_large"

// Mount builds the handler for a route table. Every row is served at
// /v1+Path and nowhere else.
//
// A body that declares more than MaxBodyBytes is refused with 413
// before a byte of it is read; one that does not say is cut off there
// (http.MaxBytesReader), and whatever refusal the handler then writes
// for its failed read leaves as the same 413.
//
// Around the whole mux sits the request middleware: a valid inbound
// X-Factcheck-Trace id is honored and anything else replaced with a
// fresh one; the id is stamped on the response header, on r.Header (so
// a proxy hop that forwards the request's headers carries it) and in
// the request context (so spans recorded below the handler see it).
// After the handler returns, count (nil = no counters) receives the
// row's Endpoint and whether the status was 4xx/5xx, and the request is
// logged once: "request refused" at warn with the envelope code for
// 4xx/5xx, "request served" at debug otherwise, carrying method, path,
// endpoint, status, code, trace, session and the caller's attrs.
func Mount(routes []Route, log *slog.Logger, count func(endpoint string, failed bool), attrs ...slog.Attr) http.Handler {
	mux := http.NewServeMux()
	endpoints := make(map[string]string, len(routes))
	for _, rt := range routes {
		pattern := "/v1" + rt.Path
		if rt.Method != "" {
			pattern = rt.Method + " " + pattern
		}
		endpoints[pattern] = rt.Endpoint
		mux.HandleFunc(pattern, rt.Handler)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace := r.Header.Get(obs.TraceHeader)
		if !obs.ValidTraceID(trace) {
			trace = obs.NewTraceID()
		}
		r.Header.Set(obs.TraceHeader, trace)
		w.Header().Set(obs.TraceHeader, trace)
		r = r.WithContext(obs.WithTrace(r.Context(), trace))
		rec := &recorder{ResponseWriter: w, status: http.StatusOK}
		if r.ContentLength > MaxBodyBytes {
			rec.overrun = true
			WriteError(rec, http.StatusRequestEntityTooLarge, CodeBodyTooLarge, "", 0)
		} else {
			r.Body = &limitedBody{http.MaxBytesReader(rec, r.Body, MaxBodyBytes), rec}
			mux.ServeHTTP(rec, r)
		}
		// The mux recorded the pattern it matched on r ("" when none did).
		endpoint := endpoints[r.Pattern]
		failed := rec.status >= 400
		if count != nil && endpoint != "" {
			count(endpoint, failed)
		}
		level, msg := slog.LevelDebug, "request served"
		if failed {
			level, msg = slog.LevelWarn, "request refused"
		}
		if !log.Enabled(r.Context(), level) {
			return
		}
		log.LogAttrs(r.Context(), level, msg, append([]slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("endpoint", endpoint),
			slog.Int("status", rec.status),
			slog.String("code", rec.code),
			slog.String("trace", trace),
			slog.String("session", r.PathValue("id")),
		}, attrs...)...)
	})
}

// recorder captures the response status and the envelope code
// WriteError stamped, for the counters and the request log line.
type recorder struct {
	http.ResponseWriter
	status int
	code   string
	// overrun: the request body is over MaxBodyBytes, declared so or
	// found so by the handler's read; WriteError answers it with 413.
	overrun bool
}

func (w *recorder) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// ReadFrom keeps the wrapped writer's io.ReaderFrom within io.Copy's
// reach. net/http's response writer has one (pooled buffer, sendfile
// and splice where they apply); hidden behind the recorder, every
// io.Copy into it — the router relaying a backend's response — bought
// a fresh 32 KB buffer instead.
func (w *recorder) ReadFrom(r io.Reader) (int64, error) {
	if rf, ok := w.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(r)
	}
	return io.Copy(w.ResponseWriter, r)
}

// limitedBody is the request body behind http.MaxBytesReader; it tells
// the recorder when a read ran into the limit.
type limitedBody struct {
	io.ReadCloser
	rec *recorder
}

func (b *limitedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		b.rec.overrun = true
	}
	return n, err
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// ErrorInfo is the payload of the API's JSON error envelope.
type ErrorInfo struct {
	// Code is the stable machine-readable error code.
	Code string `json:"code"`
	// Message is the human-readable detail; not a stable surface.
	Message string `json:"message"`
	// RetryAfter is the server's backoff hint in seconds (0 = none),
	// mirrored in the Retry-After header.
	RetryAfter int `json:"retryAfter,omitempty"`
	// TraceID echoes the request's trace id (the X-Factcheck-Trace
	// header the middleware stamped), so a refused request is joinable
	// with server logs and the session's span ring.
	TraceID string `json:"traceId,omitempty"`
}

// ErrorBody is the envelope: {"error": {...}}.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// WriteError writes the API's JSON error envelope. retryAfter (seconds,
// 0 = none) is mirrored in the Retry-After header so both envelope-
// aware clients and HTTP-generic ones see the same hint.
func WriteError(w http.ResponseWriter, status int, code, message string, retryAfter int) {
	// The middleware's recorder takes the code for the request log line
	// and, when the body overran MaxBodyBytes, turns whatever refusal the
	// failed read produced into the one 413.
	if rec, ok := w.(*recorder); ok {
		if rec.overrun {
			status, code, retryAfter = http.StatusRequestEntityTooLarge, CodeBodyTooLarge, 0
			message = "request body exceeds " + strconv.Itoa(MaxBodyBytes) + " bytes"
		}
		rec.code = code
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	// The trace id the middleware stamped on the response header is
	// echoed in the envelope, making a client-side failure joinable with
	// server logs without header spelunking.
	WriteJSON(w, status, ErrorBody{Error: ErrorInfo{
		Code:       code,
		Message:    message,
		RetryAfter: retryAfter,
		TraceID:    w.Header().Get(obs.TraceHeader),
	}})
}

// BoolQuery reads a boolean query flag with strconv.ParseBool
// semantics: ?name=1 (or true) turns it on; absent, =0, =false or
// garbage leave it off.
func BoolQuery(r *http.Request, name string) bool {
	on, _ := strconv.ParseBool(r.URL.Query().Get(name))
	return on
}
