// Package obs is the serving fleet's dependency-free observability
// layer: request trace ids and their context plumbing, per-request
// spans collected into bounded per-session rings, per-stage latency
// histograms, structured-logging helpers over log/slog, and a
// Prometheus text-exposition builder that maps stats.LogHist buckets
// onto native histogram samples.
//
// The package is deliberately passive: nothing in it draws randomness
// from the inference RNG streams, touches session state, or changes
// control flow — instrumentation records what happened and when, never
// what happens next. That passivity is what makes the serving layer's
// trace-neutrality guarantee (selection traces bit-identical with
// observability on or off, see DESIGN.md §16) hold by construction.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
)

// TraceHeader is the HTTP header carrying the request trace id. The
// router mints an id for every request that arrives without one and
// forwards the header on proxy, migration and ingest hops; backends
// mint one themselves when addressed directly. The id is echoed on the
// response and stamped into the JSON error envelope (error.traceId),
// so a client-side failure is joinable with the server's logs and the
// session's span ring.
const TraceHeader = "X-Factcheck-Trace"

// NewTraceID draws a fresh 16-hex-char random id: a trace id, or a
// session id (service.Manager.Open and the router's create draw theirs here).
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("obs: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether a client-supplied trace id is safe to
// adopt: 1–64 chars of [0-9A-Za-z._-]. Anything else (empty, oversized,
// or carrying exposition/log metacharacters) is replaced with a fresh
// id rather than propagated.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

type traceKey struct{}

// WithTrace returns ctx carrying the trace id.
func WithTrace(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceID returns the trace id carried by ctx ("" when none).
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// ParseLevel maps a -log-level flag value onto a slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds the fleet's standard structured logger: JSON lines
// to w at the given level, every record stamped with the component
// name ("factcheck-server", "factcheck-router", ...).
func NewLogger(w io.Writer, component string, level slog.Level) *slog.Logger {
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})
	return slog.New(h).With("component", component)
}

// Discard returns a logger that drops everything — the default for
// injectable logger fields, so observability stays opt-in and silent
// paths stay silent.
func Discard() *slog.Logger {
	return slog.New(slog.DiscardHandler)
}
