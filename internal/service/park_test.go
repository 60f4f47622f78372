package service

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"factcheck/internal/persist"
	"factcheck/internal/stats"
)

// tablesHeld returns the ids of m's live sessions whose chain holds its
// sampler tables, and how many sessions are live; each session is read
// under its own lock.
func tablesHeld(m *Manager) (held []string, live int) {
	m.mu.Lock()
	sessions := m.liveLocked()
	m.mu.Unlock()
	for _, s := range sessions {
		s.mu.Lock()
		if !s.core.Engine.TablesReleased() {
			held = append(held, s.id)
		}
		s.mu.Unlock()
	}
	return held, len(sessions)
}

// inWarmSet reports whether s, or its core session, is reachable from
// m's warm set.
func inWarmSet(m *Manager, s *Session) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[[2]any]bool{}
	reaches(reflect.ValueOf(m.warm), seen)
	return seen[[2]any{reflect.ValueOf(s).Pointer(), reflect.TypeOf(s)}] ||
		seen[[2]any{reflect.ValueOf(s.core).Pointer(), reflect.TypeOf(s.core)}]
}

// TestParkedSessionsAreExact: a two-lane manager answers six sessions
// round-robin, so every answer finds its session parked — its sampler
// tables released — and rebuilds them (one table build per answer).
// Between requests no more than two chains hold tables. Every session
// ends with the transcript, ranking and posteriors it gets when served
// alone, its deltas and what-if rankings included. A session that is
// deleted, spilled or exported straight after being served is no longer
// reachable from the warm set.
func TestParkedSessionsAreExact(t *testing.T) {
	const lanes, sessions, steps = 2, 6, 5
	reqs := make([]OpenRequest, sessions)
	for i := range reqs {
		reqs[i] = fastOpen("wiki", 0.1, int64(300+i))
		if i%2 == 1 {
			reqs[i].Strategy = "uncertainty"
		}
	}
	id := func(i int) string { return fmt.Sprintf("p%d", i) }
	scripts := make([]Script, sessions)
	// step is session i's script step k: one oracle answer, preceded at
	// step 2 of the first two sessions by a 5 % corpus delta.
	step := func(s *Script, i, k int) {
		t.Helper()
		if k == 2 && i < 2 {
			if _, resp, err := s.Ingest(0.05, stats.StreamSeed(uint64(reqs[i].Seed), 0)); err != nil || !resp.Applied {
				t.Fatalf("ingest into %s: %+v, %v", s.ID, resp, err)
			}
		}
		if _, err := s.Answers(1); err != nil {
			t.Fatal(err)
		}
	}

	m := NewManager(Config{Workers: lanes, Store: persist.NewMemStore()})
	defer m.Shutdown()
	c := NewLocalClient(m)
	for i := range scripts {
		scripts[i] = Script{Client: c}
		if _, err := scripts[i].Open(id(i), reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	builds := m.Metrics(false).TableBuilds
	for k := 0; k < steps; k++ {
		for i := range scripts {
			step(&scripts[i], i, k)
			held, live := tablesHeld(m)
			if live != sessions || len(held) > lanes {
				t.Fatalf("step %d of %s: %d live sessions, %v hold tables, want at most %d", k, id(i), live, held, lanes)
			}
		}
	}
	if got := m.Metrics(false).TableBuilds - builds; got != sessions*steps {
		t.Errorf("%d table builds over %d round-robin answers, want one per answer", got, sessions*steps)
	}

	for i := range scripts {
		ref := NewManager(Config{Workers: lanes, Store: persist.NewMemStore()})
		solo := Script{Client: NewLocalClient(ref)}
		if _, err := solo.Open(id(i), reqs[i]); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < steps; k++ {
			step(&solo, i, k)
		}
		traceOf := func(m *Manager) sessionTrace {
			next, err := m.NextCtx(context.Background(), id(i), 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			tr := servedTrace(t, m, id(i))
			tr.rank = ranking(next)
			return tr
		}
		assertSameTrace(t, traceOf(m), traceOf(ref))
		ref.Shutdown()
	}

	// Delete, spill and export each take a session the warm set holds.
	sessionOf := func(id string) *Session {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.slots[id].sess
	}
	for i, leave := range []func(s *Session) error{
		func(s *Session) error { return m.Delete(s.id) },
		func(s *Session) error {
			if !m.spill(s, func(*Session) bool { return true }) {
				return fmt.Errorf("session %s was not spilled", s.id)
			}
			return nil
		},
		func(s *Session) error { _, err := m.Export(s.id); return err },
	} {
		s := sessionOf(id(i))
		step(&scripts[i], i, steps)
		if !inWarmSet(m, s) {
			t.Fatalf("session %s is not in the warm set straight after an answer", s.id)
		}
		if err := leave(s); err != nil {
			t.Fatal(err)
		}
		if inWarmSet(m, s) {
			t.Errorf("leaving session %d (%s) is still reachable from the warm set", i, s.id)
		}
	}
}

// TestClosedLoopBuildsTablesOnce is the ledger's closed-loop shape: two
// clients on two lanes, each serving its sessions back to back (open,
// answers, and on some a delta), then a spill of every session and a
// wave that revives and answers each again. No request finds its
// session parked, so a table is built only where one is needed anyway:
// once per open, once per revival and once per applied delta.
func TestClosedLoopBuildsTablesOnce(t *testing.T) {
	const clients, perClient, answers = 2, 3, 4
	m := NewManager(Config{Workers: 2, Store: persist.NewMemStore()})
	defer m.Shutdown()
	id := func(ci, k int) string { return fmt.Sprintf("c%d-%d", ci, k) }
	wave := func(body func(c *Client, ci, k int) error) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := NewLocalClient(m)
				for k := 0; k < perClient && errs[ci] == nil; k++ {
					errs[ci] = body(c, ci, k)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	builds := m.Metrics(false).TableBuilds
	wave(func(c *Client, ci, k int) error {
		req := fleetChurnOpen(int64(40 + 10*ci + k))
		s := Script{Client: c}
		if _, err := s.Open(id(ci, k), req); err != nil {
			return err
		}
		if _, err := s.Answers(answers); err != nil {
			return err
		}
		if k == 1 {
			if _, _, err := s.Ingest(0.02, req.Seed); err != nil {
				return err
			}
			_, err := s.Answers(answers)
			return err
		}
		return nil
	})
	opened := m.Metrics(false).TableBuilds - builds
	if want := int64(clients*perClient + clients); opened != want { // one delta per client
		t.Errorf("the open wave built %d tables, want %d: one per open and per delta", opened, want)
	}
	spill(t, m, clients*perClient)
	builds = m.Metrics(false).TableBuilds
	wave(func(c *Client, ci, k int) error {
		if _, err := (&Script{Client: c, ID: id(ci, k)}).Answers(answers); err != nil {
			return err
		}
		return m.Delete(id(ci, k))
	})
	if revived := m.Metrics(false).TableBuilds - builds; revived != clients*perClient {
		t.Errorf("the revival wave built %d tables, want %d: one per revival", revived, clients*perClient)
	}
	want := fmt.Sprintf("factcheck_table_builds_total %d\n", m.Metrics(false).TableBuilds)
	if prom := string(PromText(m.Metrics(true))); !strings.Contains(prom, want) {
		t.Errorf("exposition lacks %q:\n%s", want, prom)
	}
}

// TestReleasedLiveSessionIsExact: a live session whose tables and base
// are released between requests, under its lock as an idle release
// would do it, answers as a never-released twin does: the same ranking
// before every answer, then the same transcript and marginals. Every
// release before an answer falls after the ranking the answer takes, so
// the answer's inference is the first entry to find the base gone and
// must regenerate it itself (em.Engine.live). Every other answer is
// followed by a release too, so the next ranking is the one that answer
// cached, read on a released base.
func TestReleasedLiveSessionIsExact(t *testing.T) {
	const id, answers = "r", 12
	req := fastOpen("wiki", 0.2, 63)
	rel := NewManager(Config{Workers: 1, Store: persist.NewMemStore()})
	held := NewManager(Config{Workers: 1, Store: persist.NewMemStore()})
	defer rel.Shutdown()
	defer held.Shutdown()
	clients := []*Client{NewLocalClient(rel), NewLocalClient(held)}
	for _, c := range clients {
		if _, err := c.OpenAs(id, req); err != nil {
			t.Fatal(err)
		}
	}
	release := func(at string) {
		t.Helper()
		rel.mu.Lock()
		s := rel.slots[id].sess
		rel.mu.Unlock()
		s.mu.Lock()
		s.core.Release()
		released := s.core.DB.BaseReleased() && s.core.Engine.TablesReleased()
		s.mu.Unlock()
		if !released {
			t.Fatalf("%s: the released session still holds its base or tables", at)
		}
	}
	for k := 0; k < answers; k++ {
		var next [2]NextResponse
		for i, c := range clients {
			var err error
			if next[i], err = c.Next(id, 1<<20); err != nil {
				t.Fatal(err)
			}
		}
		assertSameTrace(t, sessionTrace{rank: ranking(next[0])}, sessionTrace{rank: ranking(next[1])})
		if next[0].Done {
			t.Fatalf("the session is done after %d answers, want %d", k, answers)
		}
		release(fmt.Sprintf("before answer %d", k))
		for i, c := range clients {
			if _, err := c.Answer(id, AnswerRequest{Claim: next[i].Candidates[0].Claim, Oracle: true, Seq: &next[i].Seq}); err != nil {
				t.Fatalf("answer %d: %v", k, err)
			}
		}
		assertSameTrace(t, servedTrace(t, rel, id), servedTrace(t, held, id))
		if k%2 == 1 {
			release(fmt.Sprintf("after answer %d", k))
		}
	}
}
