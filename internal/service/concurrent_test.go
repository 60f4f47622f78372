package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/persist"
)

// TestConcurrentSessionsShareOnePool is the scale acceptance test: 64
// auto-driven sessions multiplex concurrently onto one shared worker
// budget (run under -race via `make race`). Each session must finish its
// answers without protocol errors, and — because sessions are mutually
// isolated — produce exactly the state a lone session with the same seed
// produces.
func TestConcurrentSessionsShareOnePool(t *testing.T) {
	const sessions = 64
	const answers = 3

	m := NewManager(Config{Workers: 4, MaxSessions: sessions + 1}) // +1 for the solo control run
	srv := httptest.NewServer(NewServer(m).Handler())
	defer func() { srv.Close(); m.Shutdown() }()
	client := NewClient(srv.URL)

	drive := func(seed int64) (StateResponse, error) {
		info, err := client.Open(fastOpen("wiki", 0.03, seed))
		if err != nil {
			return StateResponse{}, fmt.Errorf("open: %w", err)
		}
		return (&Script{Client: client, ID: info.ID}).Answers(answers)
	}

	var wg sync.WaitGroup
	results := make([]StateResponse, sessions)
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = drive(int64(i))
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if results[i].Labeled != answers {
			t.Fatalf("session %d labeled %d claims, want %d", i, results[i].Labeled, answers)
		}
	}
	if got := m.Len(); got != sessions {
		t.Fatalf("manager hosts %d sessions, want %d", got, sessions)
	}
	if in := m.Budget().InUse(); in != 0 {
		t.Fatalf("worker lanes leaked: %d still granted", in)
	}

	// Isolation: a session seeded like session 5 but run alone, after
	// the fact, reaches the identical state — concurrency and budget
	// contention never leak between sessions.
	solo, err := drive(5)
	if err != nil {
		t.Fatal(err)
	}
	if solo.Labeled != results[5].Labeled || solo.Z != results[5].Z || solo.Precision != results[5].Precision ||
		solo.Expected != results[5].Expected {
		t.Fatalf("concurrent session diverged from solo run:\n concurrent=%+v\n solo=%+v", results[5], solo)
	}
}

// gateAppendStore parks every WAL append — a point where the request
// holds its base lane and its session lock — until release closes,
// announcing each arrival on entered.
type gateAppendStore struct {
	persist.Store
	entered chan string
	release chan struct{}
}

func (g *gateAppendStore) Append(id string, seq int, e core.Elicitation) error {
	g.entered <- id
	<-g.release
	return g.Store.Append(id, seq, e)
}

// TestConcurrentRequestsHoldOneLaneEach pins the base-lane half of the
// elastic policy: with as many lanes as concurrent requests nobody
// queues. Two sessions on a 2-lane manager are parked mid-request at
// the same moment; under the old grab-everything grant the second would
// still be blocked in Acquire and never reach its append.
func TestConcurrentRequestsHoldOneLaneEach(t *testing.T) {
	gate := &gateAppendStore{Store: persist.NewMemStore(), entered: make(chan string), release: make(chan struct{})}
	m := NewManager(Config{Workers: 2, Store: gate})
	defer m.Shutdown()

	reqs := map[string]AnswerRequest{}
	for seed := int64(71); seed <= 72; seed++ {
		open := fastOpen("wiki", 0.1, seed)
		open.Communities = 4 // several components: the E-step is a parallel section too
		info, err := m.Open(open)
		if err != nil {
			t.Fatal(err)
		}
		next, err := m.NextCtx(context.Background(), info.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		reqs[info.ID] = AnswerRequest{Claim: next.Candidates[0].Claim, Oracle: true}
	}
	waits := m.Budget().Waits()

	errs := make(chan error, len(reqs))
	for id, req := range reqs {
		go func() {
			_, err := m.AnswerCtx(context.Background(), id, req)
			errs <- err
		}()
	}
	for range reqs {
		select {
		case <-gate.entered:
		case <-time.After(10 * time.Second):
			close(gate.release) // let Shutdown through
			t.Fatal("a request never reached its WAL append while the other was mid-request: requests serialise")
		}
	}
	if in := m.Budget().InUse(); in != 2 {
		t.Errorf("two parked requests hold %d lanes, want one base lane each and every borrowed extra returned", in)
	}
	if w := m.Budget().Waits(); w != waits {
		t.Errorf("lane waits moved %d → %d with as many lanes as requests", waits, w)
	}
	close(gate.release)
	for range reqs {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if in := m.Budget().InUse(); in != 0 {
		t.Fatalf("worker lanes leaked: %d still granted", in)
	}
}

// widestLoan wraps a Budget and records the widest loan any section got.
type widestLoan struct {
	*Budget
	widest int
}

func (l *widestLoan) Borrow(want int) int {
	n := l.Budget.Borrow(want)
	l.widest = max(l.widest, n)
	return n
}

// TestLoneRequestFansOutOverEveryLane pins the borrowing half: a
// session built as the manager builds one (BuildSession on the budget)
// and running alone has sections as wide as the whole budget, hands
// every extra back, and holds no lane once built.
func TestLoneRequestFansOutOverEveryLane(t *testing.T) {
	req := fastOpen("wiki", 0.1, 73)
	req.Communities = 4
	b := NewBudget(3)
	spy := &widestLoan{Budget: b}
	cs, _, err := BuildSession(req, nil, spy)
	if err != nil {
		t.Fatal(err)
	}
	if b.InUse() != 0 {
		t.Fatalf("a built session holds %d lanes, want none", b.InUse())
	}
	release := b.Acquire()
	if _, err := cs.Pending(1); err != nil {
		t.Fatal(err)
	}
	if b.InUse() != 1 {
		t.Fatalf("between sections the request holds %d lanes, want its base lane only", b.InUse())
	}
	release()
	if spy.widest != b.Total()-1 {
		t.Fatalf("widest loan to a lone request was %d extras, want %d (every other lane)", spy.widest, b.Total()-1)
	}
	if b.InUse() != 0 {
		t.Fatalf("lanes leaked: %d in use", b.InUse())
	}
}

// BenchmarkServedAnswer measures the full HTTP answer round-trip —
// decode, lane acquire, Step (incremental inference), next-ranking
// warm-up, encode — on wiki-profile sessions. The workers=N arms are one
// client on an N-lane budget (the lone-request path: every section fans
// out over all lanes); clients=2 is two sessions driven by two client
// goroutines on a 2-lane budget, b.N answers split between them (the
// concurrent path: one lane each, serial stretches overlapping). Every
// arm reports answers/s. `make bench` reports this alongside the
// in-process scoring benchmarks for the README tuning table; the
// clients=2 arm is wall-clock concurrency and too noisy for BENCH_HOT.
func BenchmarkServedAnswer(b *testing.B) {
	for _, arm := range []struct {
		name             string
		workers, clients int
	}{{"workers=1", 1, 1}, {"workers=2", 2, 1}, {"workers=4", 4, 1}, {"clients=2", 2, 2}} {
		b.Run(arm.name, func(b *testing.B) {
			m := NewManager(Config{Workers: arm.workers})
			srv := httptest.NewServer(NewServer(m).Handler())
			defer func() { srv.Close(); m.Shutdown() }()

			// Sessions are opened and first-ranked before the timer starts,
			// enough of them for b.N answers; a client moves on to the next
			// when its corpus is exhausted.
			type served struct {
				id   string
				next NextResponse
			}
			var ready chan served
			setup := NewClient(srv.URL)
			for seed := int64(42); ready == nil || len(ready) < cap(ready); seed++ {
				info, err := setup.Open(OpenRequest{Profile: "wiki", Scale: 0.2, Seed: seed, CandidatePool: 8})
				if err != nil {
					b.Fatal(err)
				}
				next, err := setup.Next(info.ID, 1)
				if err != nil {
					b.Fatal(err)
				}
				if ready == nil {
					ready = make(chan served, b.N/info.Claims+arm.clients) // sized to the number of sends
				}
				ready <- served{info.ID, next}
			}
			close(ready)
			answer := func(n int) error {
				client := NewClient(srv.URL)
				s := served{next: NextResponse{Done: true}}
				for i := 0; i < n; i++ {
					if s.next.Done {
						s = <-ready
					}
					st, err := client.Answer(s.id, AnswerRequest{Claim: s.next.Candidates[0].Claim, Oracle: true})
					if err != nil {
						return err
					}
					s.next = NextResponse{Done: st.Done}
					if !st.Done {
						s.next.Candidates = []Candidate{{Claim: st.Expected}}
					}
				}
				return nil
			}

			b.ResetTimer()
			errs := make(chan error, arm.clients)
			for c := 0; c < arm.clients; c++ {
				n := b.N / arm.clients
				if c == 0 {
					n += b.N % arm.clients
				}
				go func() { errs <- answer(n) }()
			}
			for c := 0; c < arm.clients; c++ {
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "answers/s")
		})
	}
}
