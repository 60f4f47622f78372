package service

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"
)

// flashCrowdP99 is the pinned overload scenario's SLO: an answer p99
// of 150ms, evaluated every 500ms over a 2s window. RecoverAfter is
// pinned far beyond the test horizon so the ladder's one-way walk is
// what the assertions see; recovery itself is covered deterministically
// by TestSLOControllerLadderWalk. Under the race detector the whole
// scenario dilates (see raceEnabled): the SLO, window, corpus and crowd
// scale so the same ladder walk happens on the ~15x slower machine.
const flashCrowdP99 = 0.15

// crowdSLO returns the scenario's effective SLO seconds.
func crowdSLO() float64 {
	if raceEnabled {
		return flashCrowdP99 * 20
	}
	return flashCrowdP99
}

// crowdSize returns the crowd's driver count.
func crowdSize() int {
	if raceEnabled {
		return 12
	}
	return 32
}

// crowdDeadline bounds the ladder walk.
func crowdDeadline() time.Duration {
	if raceEnabled {
		return 150 * time.Second
	}
	return 20 * time.Second
}

func flashCrowdConfig() Config {
	cfg := Config{
		Workers: 1,
		SLO: SLOConfig{
			P99:           crowdSLO(),
			WindowSeconds: 2,
			Slots:         4,
			MinSamples:    4,
			DegradeAfter:  2,
			ShedAfter:     2,
			RecoverAfter:  1_000_000,
		},
	}
	if raceEnabled {
		cfg.SLO.WindowSeconds = 16
	}
	return cfg
}

// flashCrowdOpen is the pinned per-session workload: a full-size wiki
// corpus with a wide candidate pool and heavy what-if budgets, so a
// full-scoring answer costs ~150ms on one worker lane while the
// degraded uncertainty ranking serves the same answer in ~1ms.
func flashCrowdOpen(seed int64) OpenRequest {
	scale := 1.0
	if raceEnabled {
		scale = 0.5
	}
	return OpenRequest{
		Profile:       "wiki",
		Scale:         scale,
		Seed:          seed,
		CandidatePool: 24,
		EM:            &EMBudgets{BurnIn: 4, Samples: 8, IncBurnIn: 30, IncSamples: 60, EMIters: 1, HypoBurn: 60, HypoSamples: 120},
	}
}

// as429 unwraps an admission-control rejection, returning the server's
// Retry-After hint.
func as429(err error) (time.Duration, bool) {
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
		return apiErr.RetryAfter, true
	}
	return 0, false
}

func isStatus(err error, status int) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == status
}

// crowdStats collects the fleet's client-side observations.
type crowdStats struct {
	mu          sync.Mutex
	answerAt    []time.Time
	answerLat   []time.Duration
	sheds       int
	missingHint int // 429s that arrived without a Retry-After hint
	failure     error
}

func (st *crowdStats) answer(at time.Time, lat time.Duration) {
	st.mu.Lock()
	st.answerAt = append(st.answerAt, at)
	st.answerLat = append(st.answerLat, lat)
	st.mu.Unlock()
}

func (st *crowdStats) shed(retryAfter time.Duration) {
	st.mu.Lock()
	st.sheds++
	if retryAfter <= 0 {
		st.missingHint++
	}
	st.mu.Unlock()
}

func (st *crowdStats) fail(err error) {
	st.mu.Lock()
	if st.failure == nil {
		st.failure = err
	}
	st.mu.Unlock()
}

// crowdDriver is one member of the flash crowd: open a session (riding
// out sheds), answer it to completion as fast as the server admits,
// repeat. Every 429 is counted and every successful answer timed.
func crowdDriver(client *Client, seed int64, stop <-chan struct{}, st *crowdStats) {
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	for !stopped() {
		info, err := client.Open(flashCrowdOpen(seed))
		if err != nil {
			if ra, ok := as429(err); ok {
				st.shed(ra)
				time.Sleep(10 * time.Millisecond)
				continue
			}
			st.fail(err)
			return
		}
		for !stopped() {
			next, err := client.Next(info.ID, 1)
			if err != nil {
				if ra, ok := as429(err); ok {
					st.shed(ra)
					time.Sleep(2 * time.Millisecond)
					continue
				}
				st.fail(err)
				return
			}
			if next.Done || len(next.Candidates) == 0 {
				break
			}
			seq := next.Seq
			t0 := time.Now()
			_, err = client.Answer(info.ID, AnswerRequest{Claim: next.Candidates[0].Claim, Oracle: true, Seq: &seq})
			if err != nil {
				if ra, ok := as429(err); ok {
					st.shed(ra)
					time.Sleep(2 * time.Millisecond)
					continue
				}
				if isStatus(err, http.StatusConflict) {
					break // session finished (or a shed retry raced a duplicate window)
				}
				st.fail(err)
				return
			}
			st.answer(time.Now(), time.Since(t0))
		}
	}
}

// p99Of computes the nearest-rank p99 of a latency sample.
func p99Of(lats []time.Duration) time.Duration {
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := (99*len(s) + 99) / 100 // ceil(0.99 n)
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// TestFlashCrowdAdmissionControl is the overload acceptance test: a
// fleet of zero-think-time drivers on a one-lane server whose full-scoring
// answer costs well over the SLO. With the controller on, the server
// must degrade (cheap uncertainty ranking, answers annotated and
// counted), then shed (429 + Retry-After on work it cannot admit) —
// and the answers it does admit must meet the SLO once degradation has
// kicked in.
func TestFlashCrowdAdmissionControl(t *testing.T) {
	m := NewManager(flashCrowdConfig())
	defer m.Shutdown()
	srv := httptest.NewServer(NewServer(m).Handler())
	defer srv.Close()

	drivers := crowdSize()
	stop := make(chan struct{})
	st := &crowdStats{}
	var wg sync.WaitGroup
	for i := 0; i < drivers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			client := NewClient(srv.URL)
			// A dedicated keep-alive transport per driver: the default
			// client's 2-idle-conns-per-host pool would throttle the crowd
			// on TCP churn instead of letting it hit the worker lane.
			tr := &http.Transport{MaxIdleConnsPerHost: 2}
			defer tr.CloseIdleConnections()
			client.HTTPClient = &http.Client{Transport: tr}
			crowdDriver(client, seed, stop, st)
		}(int64(100 + i))
	}

	// Watch the controller walk the ladder; keep the crowd running for a
	// second past the shed transition, hard-capped at 20s.
	var degradedAt, sheddingAt time.Time
	deadline := time.Now().Add(crowdDeadline())
	for time.Now().Before(deadline) {
		ctrl := m.Metrics(false).Controller
		if ctrl == nil {
			t.Fatal("controller missing from metrics")
		}
		mode := ParseSLOMode(ctrl.Mode)
		if mode >= ModeDegraded && degradedAt.IsZero() {
			degradedAt = time.Now()
		}
		if mode == ModeShedding && sheddingAt.IsZero() {
			sheddingAt = time.Now()
		}
		if !sheddingAt.IsZero() && time.Since(sheddingAt) > time.Second {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if st.failure != nil {
		t.Fatalf("crowd driver failed: %v", st.failure)
	}
	if degradedAt.IsZero() {
		t.Fatal("controller never degraded under the flash crowd")
	}
	if sheddingAt.IsZero() {
		t.Fatal("controller never shed under persisting saturation")
	}

	// Shed requests were rejected with 429 and always carried the
	// Retry-After hint.
	if st.sheds == 0 {
		t.Fatal("no client observed a 429")
	}
	if st.missingHint != 0 {
		t.Fatalf("%d of %d shed responses lacked a Retry-After hint", st.missingHint, st.sheds)
	}

	// The server's own book-keeping agrees: sheds and degraded answers
	// are counted in /metrics, and the mode stands at shedding.
	ctrl := m.Metrics(false).Controller
	if ParseSLOMode(ctrl.Mode) != ModeShedding {
		t.Fatalf("final mode = %q, want shedding", ctrl.Mode)
	}
	if ctrl.Sheds == 0 {
		t.Fatal("metrics count no sheds")
	}
	if ctrl.DegradedAnswers == 0 {
		t.Fatal("metrics count no degraded answers")
	}
	if ctrl.Breaches == 0 {
		t.Fatal("metrics count no breaches")
	}

	// Admitted answers meet the SLO once admission control is shedding
	// excess load: the client-side p99 of answers completed from shortly
	// after the shed transition stays under the target (requests still
	// queued at the transition are given 300ms to drain).
	cut := sheddingAt.Add(300 * time.Millisecond)
	var steady []time.Duration
	st.mu.Lock()
	for i, at := range st.answerAt {
		if at.After(cut) {
			steady = append(steady, st.answerLat[i])
		}
	}
	total := len(st.answerAt)
	st.mu.Unlock()
	if len(steady) < 10 {
		t.Fatalf("only %d answers (of %d) completed after shedding settled", len(steady), total)
	}
	if p99 := p99Of(steady); p99.Seconds() >= crowdSLO() {
		t.Fatalf("admitted answers' p99 = %v over %d samples, want < %v",
			p99, len(steady), time.Duration(crowdSLO()*float64(time.Second)))
	}

	// Degraded answers are distinguishable in the traces themselves: at
	// least one served session's snapshot records Degraded elicitations
	// alongside normal ones.
	client := NewClient(srv.URL)
	ids, err := client.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	var sawDegraded, sawNormal bool
	for i, id := range ids.Live {
		if i >= 50 || (sawDegraded && sawNormal) {
			break
		}
		snap, err := client.Snapshot(id)
		if err != nil {
			continue // a session deleted or exported mid-scan is fine
		}
		for _, e := range snap.Elicitations {
			if e.Degraded {
				sawDegraded = true
			} else {
				sawNormal = true
			}
		}
	}
	if !sawDegraded {
		t.Fatal("no session trace marks a degraded elicitation")
	}
	if !sawNormal {
		t.Fatal("no session trace holds a normal elicitation (crowd never ran full scoring?)")
	}
}

// TestFlashCrowdControllerOffBreachesSLO is the twin run: a crowd of
// the same crowdSize() drivers on sessions of the same shape, with the
// controller disabled, queues full-scoring answers behind the single
// lane and blows through the SLO — the regression the controller exists
// to prevent.
// With that many answers queued at once, the p99 is a queue of many
// full-scoring answers deep, not the one slowest answer of a handful,
// so the breach does not hang on the machine's speed.
func TestFlashCrowdControllerOffBreachesSLO(t *testing.T) {
	cfg := flashCrowdConfig()
	cfg.SLO = SLOConfig{} // controller off
	m := NewManager(cfg)
	defer m.Shutdown()
	srv := httptest.NewServer(NewServer(m).Handler())
	defer srv.Close()

	// Each driver opens one session and submits a handful of answers;
	// with no degradation every answer pays full what-if scoring.
	const answersEach = 3
	drivers := crowdSize()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i := 0; i < drivers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s := Script{Client: NewClient(srv.URL)}
			_, err := s.Open("", flashCrowdOpen(seed))
			if err == nil {
				_, err = s.Answers(answersEach)
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(int64(200 + i))
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatalf("driver failed: %v", firstErr)
	}

	metrics := m.Metrics(false)
	if metrics.Controller != nil {
		t.Fatal("controller reported in metrics despite being disabled")
	}
	if metrics.AnswersServed < int64(drivers*answersEach) {
		t.Fatalf("answers served = %d, want %d", metrics.AnswersServed, drivers*answersEach)
	}
	t.Logf("controller-off answer p99 %.3fs over %d answers", metrics.AnswerLatency.P99, metrics.AnswersServed)
	if metrics.AnswerLatency.P99 <= flashCrowdP99 {
		t.Fatalf("controller-off answer p99 = %.3fs — the scenario no longer breaches the %.2fs SLO",
			metrics.AnswerLatency.P99, flashCrowdP99)
	}
}
