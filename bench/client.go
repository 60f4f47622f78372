package main

import (
	"fmt"
	"net/http"
	"time"

	"factcheck/internal/obs"
	"factcheck/internal/service"
)

// client is one closed-loop load-generator client: its own
// service.Client over its own connection, driven by exactly one
// goroutine. Every operation is timed here — the client-observed
// latency the end-to-end metrics report — and counted as attempted,
// and as failed when it returns an error.
type client struct {
	api       *service.Client
	transport *http.Transport
	stamp     *traceStamp // nil in the untraced pass
	rec       *recorder

	attempted, failed int
}

func newClient(base string, rec *recorder, retry bool) *client {
	c := &client{transport: &http.Transport{}, rec: rec}
	var rt http.RoundTripper = c.transport
	if rec != nil {
		c.stamp = &traceStamp{base: c.transport, prefix: rec.clientPrefix()}
		rt = c.stamp
	}
	c.api = &service.Client{BaseURL: base, HTTPClient: &http.Client{Transport: rt}}
	if retry {
		// Behind the router a 503 session_migrating is an invitation to
		// retry; the retries are counted (router.retries), not hidden.
		c.api.Retry = &service.RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond}
	}
	return c
}

// do runs one API operation and returns its latency in milliseconds.
// In the traced pass it records the client.<op> span under the trace id
// the transport stamped on the request.
func (c *client) do(op, session string, fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	c.attempted++
	if err != nil {
		c.failed++
		err = fmt.Errorf("%s %s: %w", op, session, err)
	}
	if c.rec != nil {
		c.rec.add(span{Trace: c.stamp.last, Name: "client." + op, Session: session}, start, end)
	}
	return float64(end.Sub(start)) / float64(time.Millisecond), err
}

// traceStamp is the traced pass's RoundTripper: it stamps a fresh
// X-Factcheck-Trace id on every request, so the spans the handler
// wrappers record join the client span that caused them. It belongs to
// one client, hence to one goroutine.
type traceStamp struct {
	base   http.RoundTripper
	prefix string
	n      int
	last   string
}

func (t *traceStamp) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n++
	t.last = fmt.Sprintf("%s%012x", t.prefix, t.n)
	r = r.Clone(r.Context())
	r.Header.Set(obs.TraceHeader, t.last)
	return t.base.RoundTrip(r)
}
