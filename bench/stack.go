package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"factcheck/internal/persist"
	"factcheck/internal/router"
	"factcheck/internal/service"
)

// backend is one serving process's worth of state, in-process: a
// session manager over a file store, behind the real HTTP handler on a
// loopback listener.
type backend struct {
	manager *service.Manager
	srv     *listener
	// name is the stable host name the router knows the backend by (see
	// newStack).
	name string
}

// listener is an http.Server on a loopback port whose Serve goroutine
// close waits for.
type listener struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // always ErrServerClosed after close
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.srv.Close()
	<-l.done
}

// stack is the serving stack one pass drives: one backend for the
// direct workloads; for the fleet workload two backends sharing one
// data directory behind the shard router.
type stack struct {
	dir       string
	backends  []*backend
	router    *router.Router
	routerSrv *listener
	clients   [clients]*client
}

// newStack builds the stack under a fresh directory of dataRoot. With
// a recorder (the traced pass) the persist.Store, server-handler and
// router-handler wrappers are installed and every client stamps a
// fresh trace id per request; without one nothing of the benchmark's
// sits between the client and the program.
func newStack(w spec, dataRoot string, rec *recorder) (_ *stack, err error) {
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(dataRoot, w.short+"-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	n := 1
	if w.fleet {
		n = 2
	}
	dial := map[string]string{} // stable backend host → loopback address
	for i := 0; i < n; i++ {
		fs, err := persist.NewFileStore(filepath.Join(dir, "data"))
		if err != nil {
			return nil, err
		}
		b := &backend{name: fmt.Sprintf("b%d.bench", i)}
		var store persist.Store = fs
		if rec != nil {
			store = &tracedStore{inner: fs, rec: rec}
		}
		b.manager = service.NewManager(service.Config{BackendID: b.name, Workers: 2, Store: store})
		st.backends = append(st.backends, b)
		h := service.NewServer(b.manager).Handler()
		if rec != nil {
			h = tracedHandler("server.handle", h, rec)
		}
		if b.srv, err = listen(h); err != nil {
			return nil, err
		}
		dial[b.name+":80"] = b.srv.addr
	}
	base := "http://" + st.backends[0].srv.addr
	if w.fleet {
		// The ring hashes member URLs, and loopback ports change run to
		// run; the router therefore knows the backends by fixed names
		// that its transport dials to the real listeners, which makes
		// session placement a pure function of the session ids.
		tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := dial[addr]; ok {
				addr = real
			}
			return (&net.Dialer{}).DialContext(ctx, network, addr)
		}}
		st.router = router.New(router.Config{
			// Probes only at join: periodic /healthz scans of the shared
			// data directory would add run-to-run noise, not load.
			ProbeInterval: time.Hour,
			HTTPClient:    &http.Client{Transport: tr, Timeout: 60 * time.Second},
		})
		for _, b := range st.backends {
			if err := st.router.Join("http://" + b.name); err != nil {
				return nil, err
			}
		}
		h := st.router.Handler()
		if rec != nil {
			h = tracedHandler("router.handle", h, rec)
		}
		if st.routerSrv, err = listen(h); err != nil {
			return nil, err
		}
		base = "http://" + st.routerSrv.addr
	}
	for i := range st.clients {
		st.clients[i] = newClient(base, rec, w.fleet)
	}
	return st, nil
}

// close stops everything the stack started and removes its directory.
func (st *stack) close() {
	for _, c := range st.clients {
		if c != nil {
			c.transport.CloseIdleConnections()
		}
	}
	if st.routerSrv != nil {
		st.routerSrv.close()
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, b := range st.backends {
		if b.srv != nil {
			b.srv.close()
		}
		b.manager.Shutdown()
	}
	_ = os.RemoveAll(st.dir)
}

// scrape sums the backends' serving telemetry.
func (st *stack) scrape() scrape {
	s := scrape{stageSeconds: map[string]float64{}, stageCount: map[string]int64{}}
	for _, b := range st.backends {
		m := b.manager.Metrics(false)
		s.answers += m.AnswersServed
		s.laneWaits += m.LaneWaits
		s.gainHits += m.GainCacheHits
		s.gainMisses += m.GainCacheMisses
		for stage, sum := range m.Stages {
			s.stageSeconds[stage] += sum.Mean * float64(sum.Count)
			s.stageCount[stage] += sum.Count
		}
	}
	return s
}

// scrape is the part of service.Metrics the ledger diffs across the
// measured phase.
type scrape struct {
	answers, laneWaits   int64
	gainHits, gainMisses int64
	// stageSeconds and stageCount are the per-stage span histograms'
	// sums and counts.
	stageSeconds map[string]float64
	stageCount   map[string]int64
}

func (a scrape) minus(b scrape) scrape {
	d := scrape{
		answers: a.answers - b.answers, laneWaits: a.laneWaits - b.laneWaits,
		gainHits: a.gainHits - b.gainHits, gainMisses: a.gainMisses - b.gainMisses,
		stageSeconds: map[string]float64{}, stageCount: map[string]int64{},
	}
	for k, v := range a.stageSeconds {
		d.stageSeconds[k] = v - b.stageSeconds[k]
		d.stageCount[k] = a.stageCount[k] - b.stageCount[k]
	}
	return d
}

// evictAll spills every live session of every backend and checks that
// the whole fleet's worth is now stored and none live.
func (st *stack) evictAll(want int) error {
	for _, b := range st.backends {
		b.manager.EvictIdle(0)
	}
	for _, b := range st.backends {
		if live, spilled := b.manager.Len(), b.manager.Spilled(); live != 0 || spilled != want {
			return fmt.Errorf("after EvictIdle(0) backend %s holds %d live / %d spilled sessions, want 0 / %d", b.name, live, spilled, want)
		}
	}
	return nil
}
