package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// pass is everything one pass over one workload measured.
type pass struct {
	samples
	sessions []*session
	// errs are the operations that failed and the invariants that broke;
	// a clean pass has none.
	errs              []error
	attempted, failed int
	// setups are the durations (s) of every stack set-up of the pass:
	// directory, managers, listeners, router join, warm-up session.
	setups []float64
	// wall is the measured phase's duration (s): the closed loop from
	// the first open to the last response, spill included on the fleet
	// workload.
	wall float64
	// heapMB is HeapAlloc after a forced GC with heapSessions sessions
	// live.
	heapMB       float64
	heapSessions int
	// evictSeconds is how long spilling every session took (fleet).
	evictSeconds float64
	// server is the backends' telemetry diffed across the measured phase.
	server  scrape
	retries int64

	// Traced pass only.
	spans          []span
	migrateSeconds float64
	migrated       int
}

func (p *pass) fail(err error) {
	if err != nil {
		p.errs = append(p.errs, err)
	}
}

// digest hashes every session's claim sequence, in session order.
func (p *pass) digest() string {
	h := sha256.New()
	for _, s := range p.sessions {
		fmt.Fprintln(h, s.id, s.claims)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setUp builds the stack and runs the unmeasured warm-up session
// through it; the two together are one set-up.
func setUp(w spec, wi int, opt options, rec *recorder) (*stack, float64, error) {
	start := time.Now()
	st, err := newStack(w, opt.dataRoot, rec)
	if err != nil {
		return nil, 0, err
	}
	s := newSession(w, opt.seed, wi, -1)
	var m samples
	c := st.clients[0]
	err = s.start(c, &m)
	if err == nil {
		err = s.answers(c, &m, warmupAnswers)
	}
	if err == nil && w.rounds > 0 {
		err = s.ingest(c, &m)
	}
	if err == nil {
		_, err = c.delete(s.id)
	}
	if err != nil {
		st.close()
		return nil, 0, fmt.Errorf("warm-up session: %w", err)
	}
	return st, time.Since(start).Seconds(), nil
}

// inParallel runs fn once per client, each on its own goroutine over
// the sessions statically assigned to it (session i → client i mod 2),
// and returns when all are done. A session whose script fails is
// abandoned and the client moves on to its next one.
func (p *pass) inParallel(st *stack, fn func(c *client, s *session, m *samples) error) {
	var wg sync.WaitGroup
	perClient := make([]samples, clients)
	errs := make([][]error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := ci; i < len(p.sessions); i += clients {
				s := p.sessions[i]
				if s.failed {
					continue
				}
				if err := fn(st.clients[ci], s, &perClient[ci]); err != nil {
					errs[ci] = append(errs[ci], err)
					s.failed = true
				}
			}
		}()
	}
	wg.Wait()
	for ci := range perClient {
		p.merge(perClient[ci])
		p.errs = append(p.errs, errs[ci]...)
	}
}

// runPass sets the stack up (several times over; the last one is kept),
// drives the workload's closed loop through it and tears it down. With
// traced set, the wrappers are installed, spans recorded, and — on the
// fleet workload — a backend drain is priced after the loop.
func runPass(w spec, wi int, opt options, traced bool) (*pass, error) {
	p := &pass{}
	var rec *recorder
	setups := opt.setups
	if traced {
		rec = newRecorder()
		setups = 1
	}
	// Cheap set-ups are repeated beyond the minimum, up to maxSetups or
	// until they have used opt.setupSeconds, so that the median of a
	// 30 ms set-up rests on as much work as that of a 500 ms one.
	var st *stack
	spent := 0.0
	for k := 0; k < setups || (!traced && k < maxSetups && spent < opt.setupSeconds); k++ {
		if st != nil {
			st.close()
		}
		var secs float64
		var err error
		if st, secs, err = setUp(w, wi, opt, rec); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, secs)
		spent += secs
	}
	defer st.close()

	p.sessions = make([]*session, w.sessions)
	for i := range p.sessions {
		p.sessions[i] = newSession(w, opt.seed, wi, i)
	}
	for _, c := range st.clients {
		c.attempted, c.failed = 0, 0
	}
	if rec != nil {
		rec.reset()
	}
	runtime.GC()
	before := st.scrape()

	start := time.Now()
	if !w.fleet {
		p.inParallel(st, func(c *client, s *session, m *samples) error { return s.run(c, m, w) })
		p.wall = time.Since(start).Seconds()
		p.heapMB, p.heapSessions = liveHeapMB(), w.sessions
	} else {
		p.inParallel(st, func(c *client, s *session, m *samples) error { return s.waveA(c, m, w) })
		p.wall = time.Since(start).Seconds()
		p.heapMB, p.heapSessions = liveHeapMB(), w.sessions

		start = time.Now()
		p.fail(st.evictAll(w.sessions))
		p.evictSeconds = time.Since(start).Seconds()

		start = time.Now()
		p.inParallel(st, func(c *client, s *session, m *samples) error { return s.waveB(c, m, w) })
		p.wall += p.evictSeconds + time.Since(start).Seconds()
	}
	p.server = st.scrape().minus(before)
	for _, c := range st.clients {
		p.attempted += c.attempted
		p.failed += c.failed
		p.retries += c.api.Retries()
	}
	if int64(len(p.answer)) != p.server.answers {
		p.fail(fmt.Errorf("clients saw %d answers acknowledged, the servers count %d served", len(p.answer), p.server.answers))
	}
	if rec != nil {
		p.spans = rec.snapshot()
		link(p.spans)
		if w.fleet {
			p.fail(p.priceMigration(st, w, wi, opt))
		}
	}
	return p, nil
}

// priceMigration opens w.migrate idle sessions that the ring places on
// the second backend, then drains that backend through Router.Leave and
// times the drain: export on the source, replay-import on the
// destination, one session after the other.
func (p *pass) priceMigration(st *stack, w spec, wi int, opt options) error {
	victim := st.backends[1]
	url := "http://" + victim.name
	c := st.clients[0]
	var m samples
	for k := 0; p.migrated < w.migrate; k++ {
		s := newSession(w, opt.seed, wi, w.sessions+k)
		if owner, ok := st.router.Owner(s.id); !ok {
			return errors.New("router reports no owner while pricing a migration")
		} else if owner != url {
			continue
		}
		if err := s.start(c, &m); err != nil {
			return err
		}
		p.migrated++
	}
	start := time.Now()
	if err := st.router.Leave(url); err != nil {
		return err
	}
	p.migrateSeconds = time.Since(start).Seconds()
	if live := st.backends[0].manager.Len(); live != p.migrated {
		return fmt.Errorf("drained %d sessions, the remaining backend holds %d", p.migrated, live)
	}
	return nil
}
