package workload

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"factcheck/internal/service"
)

// newHTTPTarget boots a real factcheck-server handler on a loopback
// listener and returns a client driving it over HTTP.
func newHTTPTarget(t *testing.T, workers, maxSessions int) *service.Client {
	t.Helper()
	m := service.NewManager(service.Config{Workers: workers, MaxSessions: maxSessions})
	srv := httptest.NewServer(service.NewServer(m).Handler())
	t.Cleanup(func() { srv.Close(); m.Shutdown() })
	return service.NewClient(srv.URL)
}

// TestWallMode64ConcurrentUsers is the scale acceptance test: a
// closed-loop fleet of 64 concurrent simulated users drives a real
// factcheck-server over HTTP in wall-clock mode (run under -race via
// `make race`), and the report carries real latency percentiles and the
// server's /metrics scrape.
func TestWallMode64ConcurrentUsers(t *testing.T) {
	const concurrency = 64
	sc := &Scenario{
		Name:            "wall-64",
		Seed:            31,
		Mode:            ModeWall,
		DurationSeconds: 36_000, // ended by the user cap, not the clock
		MaxUsers:        concurrency + 8,
		AnswersPerUser:  2,
		WallTimeScale:   500, // 4s of think time -> 8ms of wall time
		Arrival:         ArrivalSpec{Kind: ArrivalClosed, Concurrency: concurrency},
		Session: service.OpenRequest{
			Profile:       "wiki",
			Scale:         0.03,
			Seed:          7000,
			CandidatePool: 4,
			EM:            fastEM(),
		},
		Fleet: []FleetGroup{
			{Behavior: Behavior{Kind: KindCrowd, ThinkMedianSeconds: 4, ThinkSigma: 0.3}},
			{Behavior: Behavior{Kind: KindOracle, ThinkMedianSeconds: 4, ThinkSigma: 0.3}},
		},
	}
	target := newHTTPTarget(t, 4, sc.MaxUsers+1)
	res, err := Run(sc, target)
	if err != nil {
		t.Fatal(err)
	}
	r := &res.Report

	if r.Mode != ModeWall || r.Target != "http" {
		t.Fatalf("report header = %+v", r)
	}
	if r.UsersStarted < concurrency {
		t.Fatalf("started %d users, want >= %d", r.UsersStarted, concurrency)
	}
	if r.UsersCompleted < concurrency {
		t.Fatalf("completed %d users, want >= %d", r.UsersCompleted, concurrency)
	}
	if r.Errors != 0 || r.UsersFailed != 0 {
		t.Fatalf("errors against a healthy server: %+v (opErrors %v)", r, r.OpErrors)
	}
	if r.Answers < int64(concurrency*2) {
		t.Fatalf("answers = %d, want >= %d", r.Answers, concurrency*2)
	}

	// Wall mode must report real latency percentiles per operation…
	if r.Latency == nil {
		t.Fatal("wall report has no latency section")
	}
	ans, ok := r.Latency[opAnswer]
	if !ok || ans.Count < int64(concurrency*2) {
		t.Fatalf("answer latency digest = %+v", ans)
	}
	if !(ans.P50 > 0 && ans.P50 <= ans.P90 && ans.P90 <= ans.P99 && ans.P99 <= ans.Max) {
		t.Fatalf("p50/p90/p99/max not ordered: %+v", ans)
	}

	// …and the server-side /metrics scrape.
	if r.Server == nil {
		t.Fatal("wall report has no server scrape")
	}
	if r.Server.AnswersServed != ans.Count {
		t.Fatalf("server served %d answers, client measured %d", r.Server.AnswersServed, ans.Count)
	}
	if r.Server.AnswerLatency.P99 <= 0 || len(r.Server.AnswerLatencyBuckets) == 0 {
		t.Fatalf("server latency histogram = %+v", r.Server.AnswerLatency)
	}
	if r.DurationSeconds <= 0 || r.AnswersPerSecond <= 0 {
		t.Fatalf("wall throughput = %+v", r)
	}
}

// TestWallModePoissonArrivals covers the open-loop wall path: users
// arrive on a compressed Poisson process and run to completion.
func TestWallModePoissonArrivals(t *testing.T) {
	sc := testScenario()
	sc.Mode = ModeWall
	sc.WallTimeScale = 400
	sc.MaxUsers = 6
	sc.Arrival = ArrivalSpec{Kind: ArrivalPoisson, Rate: 0.5}
	target := newHTTPTarget(t, 2, 64)
	res, err := Run(sc, target)
	if err != nil {
		t.Fatal(err)
	}
	r := &res.Report
	if r.UsersStarted == 0 || r.Answers == 0 {
		t.Fatalf("open-loop wall run did nothing: %+v", r)
	}
	if r.Latency == nil || r.Server == nil {
		t.Fatal("wall report missing measured sections")
	}
}

// TestWallModeIngestingFleet covers the streaming path over real HTTP:
// ingesting users must drive POST /v1/sessions/{id}/claims through
// service.Client against a live server without errors.
func TestWallModeIngestingFleet(t *testing.T) {
	sc := testScenario()
	sc.Mode = ModeWall
	sc.WallTimeScale = 400
	sc.MaxUsers = 4
	sc.AnswersPerUser = 4
	sc.Fleet = []FleetGroup{
		{Behavior: Behavior{Kind: KindIngesting, IngestEvery: 2, IngestScale: 0.05, ThinkMedianSeconds: 5}},
	}
	target := newHTTPTarget(t, 2, 64)
	res, err := Run(sc, target)
	if err != nil {
		t.Fatal(err)
	}
	r := &res.Report
	if r.OpCounts[opIngest] == 0 {
		t.Fatalf("wall ingesting fleet posted no deltas: %+v", r.OpCounts)
	}
	if r.Errors != 0 || r.UsersFailed != 0 {
		t.Fatalf("errors in a clean wall ingesting run: %+v (opErrors %v)", r, r.OpErrors)
	}
}

// dropFirst slams the first n connections shut before answering (the
// shape of a server still coming up), then serves normally.
func dropFirst(n int64, next http.Handler) http.Handler {
	var seen atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) <= n {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("test server does not support hijacking")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				panic(err)
			}
			conn.Close()
			return
		}
		next.ServeHTTP(w, r)
	})
}

// TestWallModeRetriesSurviveFlakyTransport exercises the loadtest-side
// retry policy end to end: a server that drops some connections must
// not fail the fleet, and the retries land in the report.
func TestWallModeRetriesSurviveFlakyTransport(t *testing.T) {
	m := service.NewManager(service.Config{Workers: 2, MaxSessions: 64})
	inner := service.NewServer(m).Handler()
	srv := httptest.NewServer(dropFirst(3, inner))
	t.Cleanup(func() { srv.Close(); m.Shutdown() })

	sc := testScenario()
	sc.Mode = ModeWall
	sc.WallTimeScale = 400
	sc.MaxUsers = 4
	target := service.NewClient(srv.URL)
	target.Retry = &service.RetryPolicy{MaxAttempts: 4}
	res, err := Run(sc, target)
	if err != nil {
		t.Fatal(err)
	}
	r := &res.Report
	if r.Retries == 0 {
		t.Fatalf("flaky transport produced no retries: %+v", r)
	}
	if r.UsersFailed != 0 || r.Errors != 0 {
		t.Fatalf("retries did not absorb the flakiness: %+v (opErrors %v)", r, r.OpErrors)
	}
}

// TestWallModeArrivalsOnSchedule: open-loop arrivals fire at their own
// times however long building the users before them takes, so a wall
// run admits nearly every arrival its process schedules inside the
// horizon. A runner that builds each user before sleeping toward the
// next arrival pushes every later arrival back by all earlier builds
// and admits about three quarters of them here.
func TestWallModeArrivalsOnSchedule(t *testing.T) {
	sc := testScenario()
	sc.Mode = ModeWall
	sc.DurationSeconds = 40
	sc.WallTimeScale = 20 // 2s of wall time
	sc.MaxUsers = 0
	sc.AnswersPerUser = 1
	sc.Arrival = ArrivalSpec{Kind: ArrivalPoisson, Rate: 5}
	sc.Session.Scale = 0.5 // a corpus build of a few ms per user
	want := 0
	arr := newArrivals(sc)
	for at, ok := arr.next(0); ok; at, ok = arr.next(at) {
		want++
	}
	target, _ := newLibrary(t, 2)
	res, err := Run(sc, target)
	if err != nil {
		t.Fatal(err)
	}
	r := &res.Report
	// Only arrivals due in the last moments before the deadline may be
	// lost, to a loaded scheduler starting their callbacks late.
	if r.UsersStarted*20 < want*19 {
		t.Fatalf("admitted %d of the %d arrivals scheduled inside the horizon", r.UsersStarted, want)
	}
	if r.Errors != 0 {
		t.Fatalf("errors in a clean in-process run: %+v (opErrors %v)", r, r.OpErrors)
	}
}

// TestBothClocksAdmitTheSameFleet: virtual and wall runs are one
// lifecycle on two clocks, so a closed-loop fleet that its caps end
// before the horizon admits the same users and drives the same answers
// on either clock.
func TestBothClocksAdmitTheSameFleet(t *testing.T) {
	sc := testScenario()
	sc.DurationSeconds = 36_000 // ended by the caps, not the clock
	sc.WallTimeScale = 2000
	sc.MaxUsers = 8
	sc.AnswersPerUser = 3
	sc.Arrival = ArrivalSpec{Kind: ArrivalClosed, Concurrency: 3}
	virtual := runLibrary(t, sc).Report
	sc.Mode = ModeWall
	wall := runLibrary(t, sc).Report

	if virtual.UsersStarted != sc.MaxUsers || virtual.UsersCompleted != sc.MaxUsers {
		t.Fatalf("virtual run: %d started, %d completed; want the cap %d", virtual.UsersStarted, virtual.UsersCompleted, sc.MaxUsers)
	}
	if wall.UsersStarted != virtual.UsersStarted || wall.UsersCompleted != virtual.UsersCompleted {
		t.Fatalf("users started/completed: wall %d/%d, virtual %d/%d",
			wall.UsersStarted, wall.UsersCompleted, virtual.UsersStarted, virtual.UsersCompleted)
	}
	if wall.Answers != virtual.Answers || wall.Skips != virtual.Skips {
		t.Fatalf("answers/skips: wall %d/%d, virtual %d/%d", wall.Answers, wall.Skips, virtual.Answers, virtual.Skips)
	}
	if !reflect.DeepEqual(wall.Quality, virtual.Quality) {
		t.Fatalf("quality curves differ:\nwall    %+v\nvirtual %+v", wall.Quality, virtual.Quality)
	}
	if wall.Latency == nil || virtual.Latency != nil {
		t.Fatal("only the wall report carries a latency section")
	}
}
