package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"factcheck/internal/obs"
	"factcheck/internal/stats"
)

// RetryPolicy bounds the client's retry-with-jittered-backoff on
// transport failures (connection refused or reset, a server restarting
// mid-request), under the rule of Resendable: after a dial failure any
// request is re-sent; after a failure past the dial, every request but
// an ingest POST, which the server may already have applied and cannot
// recognise when it comes again. HTTP responses are never replayed —
// the server made a decision — with one exception: a refusal whose row
// in Refusals carries a Retry-After hint is an explicit invitation
// (a full or draining backend, a session mid-migration behind a router,
// a full mailbox, load shed by admission control), and the client
// honors it for requests that are safe to repeat (all reads, deletes,
// answers, which are idempotent via their sequence number, and ingests,
// which such a refusal never enqueued; session-creating posts are not
// replayed). The server's hint is respected but never waited beyond
// MaxDelay.
//
// The applied-but-response-lost window (a connection torn down after
// the server committed the request) is closed for answer submission by
// server-side idempotency for clients that echo NextResponse.Seq into
// AnswerRequest.Seq: every answer request, a skip included, is a
// transcript record, so the server finds a retry recorded at its
// declared sequence and answers it with the session's current state, on
// whichever backend holds the session by then; a genuinely stale
// sequence is refused with ErrSeq. A replayed import is refused with
// ErrExists. A replayed open can still strand an extra session, which
// idle-TTL eviction reclaims — the reason the policy stays opt-in.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included);
	// values below 2 disable retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it (0 = 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 = 2s).
	MaxDelay time.Duration
	// Seed drives the jitter stream (0 = 1); fixed so that loadtest
	// runs with a pinned seed draw reproducible backoff schedules.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// APIError is an HTTP-level error response: the server answered with a
// non-2xx status. It preserves the envelope's stable error code, the
// status, and any Retry-After hint so callers (and the client's own
// retry loop) can distinguish transient backpressure from hard
// failures. Unwrap maps the code back onto the service's sentinel
// errors, so errors.Is(err, service.ErrSeq) works identically for
// in-process and over-the-wire callers.
type APIError struct {
	Method  string
	Path    string
	Message string
	Status  int
	// Code is the envelope's machine-readable error code (a Code*
	// constant; "" from pre-envelope servers).
	Code string
	// RetryAfter is the server's Retry-After hint (0 if absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("%s %s: %s (HTTP %d)", e.Method, e.Path, e.Message, e.Status)
	}
	return fmt.Sprintf("%s %s: HTTP %d", e.Method, e.Path, e.Status)
}

// Unwrap returns the sentinel of the code's row in Refusals (nil for
// a row without one, or a code not in the table). For a response with
// no code (a pre-envelope server, or a proxy that ate the body), the
// unambiguous statuses still map: 404 was always ErrNotFound and 410
// always ErrMigrated; the overloaded 409s and 429s stay unmapped
// rather than guessed.
func (e *APIError) Unwrap() error {
	code := e.Code
	if code == "" {
		switch e.Status {
		case http.StatusNotFound:
			code = CodeNotFound
		case http.StatusGone:
			code = CodeMigrated
		}
	}
	r, _ := refusalFor(code)
	return r.Err
}

// Client is a Go client for the factcheck-server HTTP API. Its methods
// are the endpoints the load generator, the router and the scripts
// call, one method an endpoint; a zero HTTPClient uses
// http.DefaultClient. A Client is safe for concurrent use (it carries no
// per-session state — sessions live server-side).
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient optionally overrides the transport.
	HTTPClient *http.Client
	// Retry, when non-nil, retries requests that failed with a
	// transport error under the policy's jittered exponential backoff.
	// Off by default; the load-testing harness turns it on so a fleet
	// run rides out transient connection failures.
	Retry *RetryPolicy
	// Trace, when non-empty, is stamped on every request as the
	// X-Factcheck-Trace header. The router sets it on the per-migration
	// clients it builds, so one trace id follows a session's export →
	// import → tombstone hop across backends. Set before first use.
	Trace string
	// Logger, when non-nil, receives a structured warn line for every
	// retried request (attempt, backoff, the error being retried) —
	// silent by default, so the retry path stops dropping its evidence
	// on the floor without making quiet tools chatty.
	Logger *slog.Logger

	retries atomic.Int64

	jmu    sync.Mutex
	jitter *stats.RNG
}

// NewClient returns a client for the server at base.
func NewClient(base string) *Client {
	return &Client{BaseURL: strings.TrimRight(base, "/")}
}

// NewLocalClient returns a client for m with no listener and no socket:
// every request is handed to the API handler of NewServer(m) in the
// calling goroutine. It is the whole served path but the transport —
// JSON both ways, the edge middleware, the error envelope — so what
// drives a Client drives a manager in process unchanged. BaseURL stays
// empty, which is how a report tells the two apart.
func NewLocalClient(m *Manager) *Client {
	return &Client{HTTPClient: &http.Client{Transport: handlerTransport{NewServer(m).Handler()}}}
}

// handlerTransport is the http.RoundTripper of NewLocalClient.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	// The edge stamps the trace id on the request it serves, and a
	// handler reads a body whether or not the client sent one.
	req = req.Clone(req.Context())
	if req.Body == nil {
		req.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// Retries returns the number of retried requests so far (0 unless a
// Retry policy is set).
func (c *Client) Retries() int64 { return c.retries.Load() }

// Open creates a new session under an id the server draws.
func (c *Client) Open(req OpenRequest) (SessionInfo, error) { return c.OpenAs("", req) }

// OpenAs creates a new session under a caller-chosen id (how a shard
// router pins placement to its hash ring).
func (c *Client) OpenAs(id string, req OpenRequest) (SessionInfo, error) {
	var info SessionInfo
	err := c.do(http.MethodPost, "/v1/sessions", createPayload{OpenRequest: req, ID: id}, &info)
	return info, err
}

// Next fetches the current top-k guidance ranking.
func (c *Client) Next(id string, k int) (NextResponse, error) {
	var resp NextResponse
	p := "/v1/sessions/" + url.PathEscape(id) + "/next"
	if k > 0 {
		p += "?k=" + strconv.Itoa(k)
	}
	err := c.do(http.MethodGet, p, nil, &resp)
	return resp, err
}

// Answer submits a verdict for the expected claim.
func (c *Client) Answer(id string, req AnswerRequest) (StateResponse, error) {
	var resp StateResponse
	err := c.do(http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/answer", req, &resp)
	return resp, err
}

// IngestClaims streams a corpus delta (new claims, sources, documents)
// into a live session. The response reports whether the delta was
// applied immediately or queued in the session's mailbox; a full
// mailbox surfaces as ErrMailboxFull (HTTP 429 + Retry-After), which
// the retry policy honors — a rejected delta was never enqueued, so
// replaying it is safe. A transport failure is re-sent only when the
// dial failed (Resendable): past the dial the server may have applied
// the delta, and ingest has no idempotency key, so the call returns the
// transport error and the caller decides — a snapshot or the state's
// claim count tells whether the delta landed.
func (c *Client) IngestClaims(id string, req IngestRequest) (IngestResponse, error) {
	var resp IngestResponse
	err := c.do(http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/claims", req, &resp)
	return resp, err
}

// Ingest streams a corpus delta through the endpoint its payload
// belongs to: IngestClaims when it introduces claims, IngestSources
// when it brings only sources and evidence on existing ones.
func (c *Client) Ingest(id string, req IngestRequest) (IngestResponse, error) {
	if req.Delta.NewClaims > 0 {
		return c.IngestClaims(id, req)
	}
	return c.IngestSources(id, req)
}

// IngestSources streams a claim-free corpus delta (new sources and
// evidence on existing claims) into a live session; a delta that
// introduces claims is rejected — use IngestClaims.
func (c *Client) IngestSources(id string, req IngestRequest) (IngestResponse, error) {
	var resp IngestResponse
	err := c.do(http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/sources", req, &resp)
	return resp, err
}

// Export freezes the session for migration and returns its portable
// record; the server keeps the durable copy as migration rollback until
// the session is deleted or re-imported.
func (c *Client) Export(id string) (SessionSnapshot, error) {
	var snap SessionSnapshot
	err := c.do(http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/export", nil, &snap)
	return snap, err
}

// Import installs an exported session record under id.
func (c *Client) Import(id string, snap SessionSnapshot) (SessionInfo, error) {
	var info SessionInfo
	err := c.do(http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/import", snap, &info)
	return info, err
}

// Sessions lists the ids of every session the server owns, split into
// live and stored.
func (c *Client) Sessions() (SessionList, error) {
	var resp SessionList
	err := c.do(http.MethodGet, "/v1/sessions", nil, &resp)
	return resp, err
}

// Delete closes and removes the session.
func (c *Client) Delete(id string) error {
	return c.do(http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, nil)
}

// Health reports the server's liveness and load: live and spilled
// session counts plus worker-budget usage.
func (c *Client) Health() (Health, error) {
	var h Health
	err := c.do(http.MethodGet, "/v1/healthz", nil, &h)
	return h, err
}

// Metrics scrapes the server's serving telemetry; withBuckets adds the
// raw answer-latency histogram buckets.
func (c *Client) Metrics(withBuckets bool) (Metrics, error) {
	var m Metrics
	p := "/v1/metrics"
	if withBuckets {
		p += "?buckets=1"
	}
	err := c.do(http.MethodGet, p, nil, &m)
	return m, err
}

// backoff returns the jittered delay before retry attempt (1-based):
// full jitter over an exponentially growing, capped window.
func (c *Client) backoff(p RetryPolicy, attempt int) time.Duration {
	window := p.BaseDelay << (attempt - 1)
	if window > p.MaxDelay || window <= 0 {
		window = p.MaxDelay
	}
	c.jmu.Lock()
	if c.jitter == nil {
		c.jitter = stats.NewRNG(p.Seed)
	}
	u := c.jitter.Float64()
	c.jmu.Unlock()
	return time.Duration(u * float64(window))
}

func (c *Client) do(method, path string, body, out any) error {
	var buf []byte
	if body != nil {
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			return err
		}
	}
	attempts := 1
	var policy RetryPolicy
	if c.Retry != nil && c.Retry.MaxAttempts > 1 {
		policy = c.Retry.withDefaults()
		attempts = policy.MaxAttempts
	}
	var lastErr error
	var wait time.Duration
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
			if wait <= 0 {
				wait = c.backoff(policy, attempt-1)
			}
			if c.Logger != nil {
				c.Logger.Warn("retrying request",
					"method", method, "path", path,
					"attempt", attempt, "of", attempts,
					"backoff", wait.String(), "err", lastErr)
			}
			time.Sleep(wait)
		}
		err := c.doOnce(method, path, buf, out)
		if err == nil {
			return nil
		}
		lastErr = err
		wait = 0
		if _, transient := err.(*url.Error); transient {
			if !Resendable(method, path, err) {
				return err
			}
			continue
		}
		// An HTTP-level error: the server answered; replay only an
		// explicit transient rejection (keyed off the envelope's error
		// code, with a status fallback for pre-envelope servers) +
		// Retry-After on requests safe to repeat.
		var apiErr *APIError
		if errors.As(err, &apiErr) && retryable(apiErr) &&
			apiErr.RetryAfter > 0 && retrySafe(method, path) {
			wait = min(apiErr.RetryAfter, policy.MaxDelay)
			continue
		}
		return err
	}
	return lastErr
}

// retryable reports the rejections whose Retry-After hint the client
// honors: the rows of Refusals that carry a hint. A response with no
// code (a pre-envelope server, or a proxy that ate the body) falls
// back to the status: 503 and 429 were always the transient pair.
func retryable(e *APIError) bool {
	if e.Code == "" {
		return e.Status == http.StatusServiceUnavailable || e.Status == http.StatusTooManyRequests
	}
	r, _ := refusalFor(e.Code)
	return r.RetryAfter > 0
}

// retrySafe reports whether a request may be replayed after a
// Retry-After'd refusal: reads and deletes are idempotent by nature,
// answers by their sequence number, and ingest posts because such a
// refusal never enqueued the delta. POST /sessions (open/restore) and
// POST .../import create state and could strand a duplicate.
func retrySafe(method, path string) bool {
	return method != http.MethodPost || strings.HasSuffix(path, "/answer") || isIngest(method, path)
}

// Resendable reports whether a request whose send failed in transport
// with err may be sent again, to the same server or to the session's
// next owner; the client's retry loop and the router's failover both
// ask it. A dial failure reached no server, so any request may be.
// Past the dial the server may have applied the request before the
// connection broke: an answer is recognised by its Seq and a repeated
// import is refused with session_exists, but an ingest carries no key
// that would let the server tell it from a new delta, so an ingest POST
// (…/claims, …/sources) is not re-sent. A re-sent open can still strand
// a session (see RetryPolicy).
func Resendable(method, path string, err error) bool {
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		return true
	}
	return !isIngest(method, path)
}

// isIngest reports whether a request is a POST to one of the two ingest
// endpoints; path may carry a query.
func isIngest(method, path string) bool {
	path, _, _ = strings.Cut(path, "?")
	return method == http.MethodPost && (strings.HasSuffix(path, "/claims") || strings.HasSuffix(path, "/sources"))
}

func (c *Client) doOnce(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Trace != "" {
		req.Header.Set(obs.TraceHeader, c.Trace)
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(method, path, resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	err = json.NewDecoder(resp.Body).Decode(out)
	// Drain the body's trailing bytes (the encoder's newline): a body
	// not read to EOF forbids connection reuse, and the churn of a fresh
	// TCP connection per request throttles tight client loops far below
	// what the server can serve.
	io.Copy(io.Discard, resp.Body)
	return err
}

// decodeAPIError reads a non-2xx response into an *APIError. The error
// envelope is {"error": {"code", "message", "retryAfter"}};
// pre-envelope servers sent {"error": "message"}. Decoding into a
// RawMessage first handles both shapes. A Retry-After header wins over
// the envelope's hint.
func decodeAPIError(method, path string, resp *http.Response) *APIError {
	apiErr := &APIError{Method: method, Path: path, Status: resp.StatusCode}
	var e struct {
		Error json.RawMessage `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&e) == nil && len(e.Error) > 0 {
		var info ErrorInfo
		var msg string
		if json.Unmarshal(e.Error, &info) == nil && (info.Code != "" || info.Message != "") {
			apiErr.Code = info.Code
			apiErr.Message = info.Message
			if info.RetryAfter > 0 {
				apiErr.RetryAfter = time.Duration(info.RetryAfter) * time.Second
			}
		} else if json.Unmarshal(e.Error, &msg) == nil {
			apiErr.Message = msg
		}
	}
	io.Copy(io.Discard, resp.Body)
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		apiErr.RetryAfter = time.Duration(secs) * time.Second
	}
	return apiErr
}
