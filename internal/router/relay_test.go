package router

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"factcheck/internal/edge"
	"factcheck/internal/obs"
	"factcheck/internal/service"
)

// relayTarget is to io.Copy what net/http's response writer is: a
// ResponseWriter with a ReadFrom of its own that brings its buffer.
type relayTarget struct {
	header http.Header
	buf    [4096]byte
	viaRF  int64 // body bytes that arrived through ReadFrom
}

func (w *relayTarget) Header() http.Header         { return w.header }
func (w *relayTarget) WriteHeader(int)             {}
func (w *relayTarget) Write(p []byte) (int, error) { return len(p), nil }
func (w *relayTarget) ReadFrom(r io.Reader) (n int64, err error) {
	for err == nil {
		var k int
		k, err = r.Read(w.buf[:])
		n += int64(k)
	}
	w.viaRF += n
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// backendBody is a response body as the transport hands it over: Read
// and Close, no WriteTo for io.Copy to shortcut through.
type backendBody struct{ r bytes.Reader }

func (b *backendBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *backendBody) Close() error               { return nil }

// TestRelayedAnswerBuysNoCopyBuffer pins the proxy hop's relay: a
// backend's answer goes out through the edge middleware's response
// recorder, and io.Copy must still find the connection's own ReadFrom
// behind it instead of allocating its 32 KB buffer per response. The
// same relay into a writer that has no ReadFrom pays exactly that one
// allocation more.
func TestRelayedAnswerBuysNoCopyBuffer(t *testing.T) {
	answer, err := json.Marshal(service.StateResponse{ID: "0123456789abcdef", Iterations: 9, Labeled: 9, Claims: 400, Expected: 17, Seq: 9})
	if err != nil {
		t.Fatal(err)
	}
	body := &backendBody{}
	resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{"Content-Type": {"application/json"}}, Body: body}
	quiet := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
	h := edge.Mount([]edge.Route{{Method: "POST", Path: "/sessions/{id}/answer", Endpoint: "answer",
		Handler: func(w http.ResponseWriter, _ *http.Request) { copyResponse(w, resp) }}}, quiet, nil)
	req := httptest.NewRequest("POST", "/v1/sessions/0123456789abcdef/answer", nil)
	req.Header.Set(obs.TraceHeader, obs.NewTraceID())

	relay := func(w http.ResponseWriter) float64 {
		return testing.AllocsPerRun(200, func() {
			body.r.Reset(answer)
			h.ServeHTTP(w, req)
		})
	}
	conn := &relayTarget{header: http.Header{}}
	with := relay(conn)
	if conn.viaRF != 201*int64(len(answer)) { // AllocsPerRun warms up once
		t.Fatalf("%d of %d relayed bytes went through the connection's ReadFrom", conn.viaRF, 201*len(answer))
	}
	without := relay(struct{ http.ResponseWriter }{conn})
	t.Logf("relaying a %d-byte answer: %.0f allocations, %.0f into a writer without ReadFrom", len(answer), with, without)
	if with != without-1 {
		t.Errorf("relay allocates %.0f times through ReadFrom and %.0f without: want exactly the copy buffer fewer", with, without)
	}
	if with > 10 {
		t.Errorf("relaying an answer allocates %.0f times, want at most 10 (middleware and headers)", with)
	}
}
