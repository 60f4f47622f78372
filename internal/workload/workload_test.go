package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"factcheck/internal/service"
)

// fastEM keeps test inference cheap; determinism holds at any budget.
func fastEM() *service.EMBudgets {
	return &service.EMBudgets{BurnIn: 4, Samples: 8, IncBurnIn: 2, IncSamples: 4, EMIters: 1, HypoBurn: 1, HypoSamples: 2}
}

// testScenario is a small, fast fleet for unit tests.
func testScenario() *Scenario {
	return &Scenario{
		Name:            "test",
		Seed:            11,
		DurationSeconds: 120,
		MaxUsers:        12,
		AnswersPerUser:  2,
		Arrival:         ArrivalSpec{Kind: ArrivalPoisson, Rate: 0.2},
		Session: service.OpenRequest{
			Profile:       "wiki",
			Scale:         0.03,
			Seed:          900,
			CandidatePool: 4,
			EM:            fastEM(),
		},
		Fleet: []FleetGroup{
			{Behavior: Behavior{Kind: KindOracle, ThinkMedianSeconds: 5}},
		},
	}
}

// newLibrary returns an in-process client and the manager behind it,
// shut down with the test.
func newLibrary(t *testing.T, workers int) (*service.Client, *service.Manager) {
	t.Helper()
	m := service.NewManager(service.Config{Workers: workers, MaxSessions: 1 << 16})
	t.Cleanup(m.Shutdown)
	return service.NewLocalClient(m), m
}

func runLibrary(t *testing.T, sc *Scenario) *Result {
	t.Helper()
	target, _ := newLibrary(t, 2)
	res, err := Run(sc, target)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestVirtualRunBasics(t *testing.T) {
	sc := testScenario()
	res := runLibrary(t, sc)
	r := &res.Report
	if r.Mode != ModeVirtual || r.Target != "library" || r.Seed != sc.Seed {
		t.Fatalf("report header = %+v", r)
	}
	if r.UsersStarted == 0 || r.Answers == 0 {
		t.Fatalf("no work done: %+v", r)
	}
	if r.UsersStarted != r.UsersCompleted+r.UsersAbandoned+r.UsersFailed+r.UsersActiveAtEnd {
		t.Fatalf("user accounting does not add up: %+v", r)
	}
	if r.Errors != 0 || r.UsersFailed != 0 {
		t.Fatalf("errors in a clean in-process run: %+v", r)
	}
	if r.Latency != nil || r.Server != nil {
		t.Fatal("virtual report must exclude wall-clock sections")
	}
	if len(res.WallLatency) == 0 {
		t.Fatal("wall latencies must still be measured for the table")
	}
	if r.AnswersPerSecond <= 0 || math.Abs(r.AnswersPerSecond-float64(r.Answers)/r.DurationSeconds) > 1e-12 {
		t.Fatalf("throughput inconsistent: %+v", r)
	}
	// Two answers per user: completed users drove exactly 2.
	if r.OpCounts[opAnswer] < int64(r.UsersCompleted)*2 {
		t.Fatalf("answer ops = %d with %d completed users", r.OpCounts[opAnswer], r.UsersCompleted)
	}
	// Quality curve starts at the pre-validation baseline and carries
	// every answer index up to the cap.
	if len(r.Quality) != 3 {
		t.Fatalf("quality curve = %+v", r.Quality)
	}
	if r.Quality[0].Answers != 0 || r.Quality[0].MeanGain != 0 {
		t.Fatalf("curve baseline = %+v", r.Quality[0])
	}
	if r.Quality[1].Sessions < r.UsersCompleted {
		t.Fatalf("curve sessions = %+v", r.Quality)
	}
}

// TestVirtualRunBitReproducible is the acceptance pin: the same
// scenario file and seed must produce byte-identical JSON reports, run
// to run, including across distinct in-process targets.
func TestVirtualRunBitReproducible(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "scenarios", "mixed-fleet.json")
	encode := func() []byte {
		sc, err := LoadScenario(path)
		if err != nil {
			t.Fatal(err)
		}
		res := runLibrary(t, sc)
		buf, err := res.Report.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("virtual reports differ across runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	// And a different seed must actually change the run.
	sc, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed++
	res := runLibrary(t, sc)
	buf, err := res.Report.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, buf) {
		t.Fatal("changing the seed did not change the report")
	}
}

func TestShippedScenarios(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 6 {
		t.Fatalf("want at least 6 shipped scenarios, found %d", len(paths))
	}
	arrivalKinds := map[string]bool{}
	behaviorKinds := map[string]bool{}
	names := map[string]bool{}
	for _, p := range paths {
		sc, err := LoadScenario(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if names[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
		arrivalKinds[sc.Arrival.Kind] = true
		for _, g := range sc.Fleet {
			behaviorKinds[g.Behavior.Kind] = true
		}
		// Every preset runs clean on its own clock, so none rots silently.
		if r := runLibrary(t, sc).Report; r.Errors != 0 || r.UsersStarted == 0 {
			t.Errorf("%s: %d op errors %v, %d users started", p, r.Errors, r.OpErrors, r.UsersStarted)
		}
	}
	for _, k := range []string{ArrivalPoisson, ArrivalClosed, ArrivalRamp} {
		if !arrivalKinds[k] {
			t.Errorf("no shipped scenario uses arrival kind %q", k)
		}
	}
	// router-smoke drives this preset against a live 3-backend router
	// with a mid-run drain; it must stay shipped and closed-loop (a
	// closed fleet keeps pressure on the ring through the migration).
	if !names["router-fleet"] {
		t.Error("the router-fleet preset is missing")
	}
	for _, k := range []string{KindOracle, KindErroneous, KindSkipping, KindExpert, KindCrowd, KindAbandoning, KindBursty, KindIngesting} {
		if !behaviorKinds[k] {
			t.Errorf("no shipped scenario uses behavior kind %q", k)
		}
	}
}

// TestIngestingFleetVirtual drives the shipped ingesting-crowd preset
// through the library target: streaming users must actually post
// deltas, the run must stay clean (every delta validates against the
// virtual corpus shape, truths stay aligned), and the report must be
// bit-reproducible like any other virtual scenario.
func TestIngestingFleetVirtual(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "scenarios", "ingesting-crowd.json")
	encode := func() ([]byte, *Report) {
		sc, err := LoadScenario(path)
		if err != nil {
			t.Fatal(err)
		}
		res := runLibrary(t, sc)
		buf, err := res.Report.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return buf, &res.Report
	}
	a, r := encode()
	if r.OpCounts[opIngest] == 0 {
		t.Fatalf("ingesting fleet posted no deltas: %+v", r.OpCounts)
	}
	if r.Errors != 0 || r.UsersFailed != 0 {
		t.Fatalf("errors in a clean ingesting run: %+v (opErrors %v)", r, r.OpErrors)
	}
	b, _ := encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("ingesting virtual reports differ across runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"no name", func(sc *Scenario) { sc.Name = "" }},
		{"bad mode", func(sc *Scenario) { sc.Mode = "warp" }},
		{"no duration", func(sc *Scenario) { sc.DurationSeconds = 0 }},
		{"negative maxUsers", func(sc *Scenario) { sc.MaxUsers = -1 }},
		{"maxUsers past the limit", func(sc *Scenario) { sc.MaxUsers = maxUsersLimit + 1 }},
		{"maxUsers 1e9, closed", func(sc *Scenario) {
			sc.MaxUsers = 1_000_000_000
			sc.Arrival = ArrivalSpec{Kind: ArrivalClosed, Concurrency: 1_000_000_000}
		}},
		{"negative timescale", func(sc *Scenario) { sc.WallTimeScale = -2 }},
		{"bad arrival kind", func(sc *Scenario) { sc.Arrival.Kind = "burst" }},
		{"poisson without rate", func(sc *Scenario) { sc.Arrival.Rate = 0 }},
		{"closed without concurrency", func(sc *Scenario) { sc.Arrival = ArrivalSpec{Kind: ArrivalClosed} }},
		{"ramp without endRate", func(sc *Scenario) { sc.Arrival = ArrivalSpec{Kind: ArrivalRamp, Rate: 1} }},
		{"ramp negative rampSeconds", func(sc *Scenario) {
			sc.Arrival = ArrivalSpec{Kind: ArrivalRamp, Rate: 1, EndRate: 2, RampSeconds: -1}
		}},
		{"empty fleet", func(sc *Scenario) { sc.Fleet = nil }},
		{"bad behavior kind", func(sc *Scenario) { sc.Fleet[0].Behavior.Kind = "sleepy" }},
		{"probability out of range", func(sc *Scenario) { sc.Fleet[0].Behavior.ErrorP = 1.5 }},
		{"negative think", func(sc *Scenario) { sc.Fleet[0].Behavior.ThinkMedianSeconds = -1 }},
		{"negative weight", func(sc *Scenario) { sc.Fleet[0].Weight = -1 }},
		{"negative answersPerUser", func(sc *Scenario) { sc.AnswersPerUser = -1 }},
		{"unknown profile", func(sc *Scenario) { sc.Session.Profile = "moonbase" }},
	}
	for _, c := range cases {
		sc := testScenario()
		c.mutate(sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: validation passed", c.name)
		}
	}
	if err := testScenario().Validate(); err != nil {
		t.Fatalf("base scenario invalid: %v", err)
	}
}

func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	if _, err := ParseScenario([]byte(`{"name":"x","durationSeconds":1,"arival":{}}`)); err == nil {
		t.Fatal("typoed field accepted")
	}
	if _, err := ParseScenario([]byte(`{broken`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := LoadScenario("/no/such/scenario.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// FuzzParseScenario feeds arbitrary bytes to ParseScenario, the path a
// scenario file takes into factcheck-loadtest. Nothing may panic, and a
// scenario it accepts must survive the trip back through JSON: marshalled
// and parsed again, it comes back deep-equal. The shipped scenarios are
// the seeds; a failing input lands under testdata/fuzz/FuzzParseScenario/
// — commit it with the fix.
func FuzzParseScenario(f *testing.F) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no shipped scenarios to seed from: %v", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return
		}
		raw, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("an accepted scenario does not marshal: %v", err)
		}
		again, err := ParseScenario(raw)
		if err != nil {
			t.Fatalf("an accepted scenario, marshalled, is refused: %v\n%s", err, raw)
		}
		if !reflect.DeepEqual(again, sc) {
			t.Fatalf("an accepted scenario changed on the trip through JSON:\n%+v\n%+v", sc, again)
		}
	})
}

func TestPoissonArrivalRate(t *testing.T) {
	sc := testScenario()
	sc.DurationSeconds = 10_000
	sc.Arrival = ArrivalSpec{Kind: ArrivalPoisson, Rate: 0.05}
	a := newArrivals(sc)
	n, t0 := 0, 0.0
	for {
		next, ok := a.next(t0)
		if !ok {
			break
		}
		if next <= t0 {
			t.Fatalf("arrival did not advance: %v -> %v", t0, next)
		}
		t0 = next
		n++
	}
	want := sc.Arrival.Rate * sc.DurationSeconds // 500 expected
	if math.Abs(float64(n)-want) > 4*math.Sqrt(want) {
		t.Fatalf("poisson arrivals = %d, want ~%v", n, want)
	}
}

func TestRampArrivalIntensifies(t *testing.T) {
	sc := testScenario()
	sc.DurationSeconds = 1000
	sc.Arrival = ArrivalSpec{Kind: ArrivalRamp, Rate: 0.01, EndRate: 1.0}
	a := newArrivals(sc)
	var firstHalf, secondHalf int
	t0 := 0.0
	for {
		next, ok := a.next(t0)
		if !ok {
			break
		}
		t0 = next
		if t0 < sc.DurationSeconds/2 {
			firstHalf++
		} else {
			secondHalf++
		}
	}
	if secondHalf <= 2*firstHalf {
		t.Fatalf("ramp did not intensify: %d then %d", firstHalf, secondHalf)
	}
	// The mean of a linear 0.01→1.0 ramp is ~0.5/s over 1000s.
	total := float64(firstHalf + secondHalf)
	if total < 350 || total > 700 {
		t.Fatalf("ramp arrivals = %v, want ~500", total)
	}
}

func TestFleetPickerWeights(t *testing.T) {
	sc := testScenario()
	sc.Fleet = []FleetGroup{
		{Behavior: Behavior{Kind: KindOracle}, Weight: 3},
		{Behavior: Behavior{Kind: KindCrowd}, Weight: 1},
	}
	p := newFleetPicker(sc)
	counts := [2]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[p.pick()]++
	}
	frac := float64(counts[0]) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("group 0 fraction = %v, want ~0.75", frac)
	}
}

func TestClosedLoopKeepsConcurrency(t *testing.T) {
	sc := testScenario()
	sc.Arrival = ArrivalSpec{Kind: ArrivalClosed, Concurrency: 3}
	sc.MaxUsers = 9
	sc.DurationSeconds = 10_000 // long enough that the cap, not time, ends it
	res := runLibrary(t, sc)
	r := &res.Report
	if r.UsersStarted != 9 {
		t.Fatalf("started %d users, want the cap of 9", r.UsersStarted)
	}
	if r.UsersCompleted != 9 {
		t.Fatalf("completed %d of 9", r.UsersCompleted)
	}
}

// countingClock counts what is scheduled on it and runs nothing.
type countingClock struct{ events int }

func (c *countingClock) now() float64       { return 0 }
func (c *countingClock) at(float64, func()) { c.events++ }

// TestClosedLoopSchedulesAtMostTheCap: a closed-loop concurrency above
// the user cap queues one start per user the cap admits, not one per
// unit of concurrency — a value ParseScenario accepts would otherwise
// be allocated by.
func TestClosedLoopSchedulesAtMostTheCap(t *testing.T) {
	for _, tc := range []struct{ concurrency, maxUsers, want int }{
		{100_000, 2, 2},
		{3, 9, 3},
		{5, 5, 5},
		{1_000_000_000, 0, 4096},
		{1_000_000_000, maxUsersLimit, maxUsersLimit},
	} {
		sc := testScenario()
		sc.Arrival = ArrivalSpec{Kind: ArrivalClosed, Concurrency: tc.concurrency}
		sc.MaxUsers = tc.maxUsers
		if err := sc.Validate(); err != nil {
			t.Fatal(err)
		}
		clk := &countingClock{}
		newFleet(sc, nil, clk)
		if clk.events != tc.want {
			t.Errorf("concurrency %d, cap %d: %d starts scheduled, want %d", tc.concurrency, tc.maxUsers, clk.events, tc.want)
		}
	}
}

func TestAbandoningUsersLeaveSessionsBehind(t *testing.T) {
	sc := testScenario()
	sc.Fleet = []FleetGroup{{Behavior: Behavior{Kind: KindAbandoning, AbandonP: 0.9, ThinkMedianSeconds: 2}}}
	sc.AnswersPerUser = 50
	target, m := newLibrary(t, 2)
	res, err := Run(sc, target)
	if err != nil {
		t.Fatal(err)
	}
	r := &res.Report
	if r.UsersAbandoned == 0 {
		t.Fatalf("no user abandoned at p=0.9: %+v", r)
	}
	// Abandoned sessions are left open on the server — the whole point
	// of the profile is to exercise idle eviction.
	if live := m.Len(); live < r.UsersAbandoned {
		t.Fatalf("manager holds %d sessions, want at least the %d abandoned", live, r.UsersAbandoned)
	}
}

func TestSkippingUsersSkip(t *testing.T) {
	sc := testScenario()
	sc.Seed = 21
	sc.MaxUsers = 8
	sc.Arrival.Rate = 0.5
	sc.AnswersPerUser = 3
	sc.Fleet = []FleetGroup{{Behavior: Behavior{Kind: KindSkipping, SkipP: 0.5, ThinkMedianSeconds: 2}}}
	res := runLibrary(t, sc)
	if res.Report.Skips == 0 {
		t.Fatalf("no skips at skipP=0.5: %+v", res.Report)
	}
	if res.Report.Errors != 0 {
		t.Fatalf("skip protocol errors: %+v", res.Report)
	}
}

func TestErroneousFleetDegradesQuality(t *testing.T) {
	base := testScenario()
	base.MaxUsers = 6
	base.AnswersPerUser = 3
	noisy := testScenario()
	noisy.MaxUsers = 6
	noisy.AnswersPerUser = 3
	noisy.Fleet = []FleetGroup{{Behavior: Behavior{Kind: KindErroneous, ErrorP: 0.5, ThinkMedianSeconds: 5}}}
	a, b := runLibrary(t, base), runLibrary(t, noisy)
	last := func(r *Report) CurvePoint { return r.Quality[len(r.Quality)-1] }
	if last(&b.Report).MeanPrecision >= last(&a.Report).MeanPrecision {
		t.Fatalf("50%% erroneous fleet (%v) not worse than oracle fleet (%v)",
			last(&b.Report).MeanPrecision, last(&a.Report).MeanPrecision)
	}
}

func TestBurstyUserDrawsLongGaps(t *testing.T) {
	sc := testScenario()
	sc.Fleet = []FleetGroup{{Behavior: Behavior{Kind: KindBursty, BurstLen: 2, BurstGapSeconds: 500, ThinkMedianSeconds: 1}}}
	u, err := newFleetUser(sc, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Claim indices only drive verdict lookup; any valid one works.
	var thinks []float64
	for i := 0; i < 6; i++ {
		_, think := u.respond(0)
		thinks = append(thinks, think)
	}
	// Every second answer ends a burst: gaps at indices 1, 3, 5.
	for i, th := range thinks {
		if i%2 == 1 {
			if th < 50 {
				t.Fatalf("burst-ending answer %d got a short gap %v", i, th)
			}
		} else if th > 50 {
			t.Fatalf("mid-burst answer %d got a gap-sized think %v", i, th)
		}
	}
}

func TestBehaviorDefaults(t *testing.T) {
	for _, kind := range []string{KindOracle, KindErroneous, KindSkipping, KindExpert, KindCrowd, KindAbandoning, KindBursty} {
		b := Behavior{Kind: kind}.withDefaults()
		if b.ThinkMedianSeconds <= 0 || b.ThinkSigma <= 0 {
			t.Fatalf("%s: think defaults missing: %+v", kind, b)
		}
		switch kind {
		case KindExpert:
			if b.Reliability != 0.97 {
				t.Fatalf("expert reliability = %v", b.Reliability)
			}
		case KindCrowd:
			if b.Reliability != 0.80 {
				t.Fatalf("crowd reliability = %v", b.Reliability)
			}
		case KindSkipping:
			if b.SkipP != 0.1 {
				t.Fatalf("skip default = %v", b.SkipP)
			}
		case KindAbandoning:
			if b.AbandonP != 0.25 {
				t.Fatalf("abandon default = %v", b.AbandonP)
			}
		case KindBursty:
			if b.BurstLen != 3 || b.BurstGapSeconds != 10*b.ThinkMedianSeconds {
				t.Fatalf("bursty defaults = %+v", b)
			}
		}
	}
	// Expert think times dominate crowd think times by default.
	e := Behavior{Kind: KindExpert}.withDefaults()
	c := Behavior{Kind: KindCrowd}.withDefaults()
	if e.ThinkMedianSeconds <= c.ThinkMedianSeconds {
		t.Fatal("experts should think longer than crowd by default")
	}
}

func TestUserTruthMatchesServerCorpus(t *testing.T) {
	req := service.OpenRequest{Profile: "wiki", Scale: 0.05, Seed: 77, EM: fastEM()}
	corpus, err := service.BuildCorpus(req)
	if err != nil {
		t.Fatal(err)
	}
	target, _ := newLibrary(t, 1)
	info, err := target.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	if info.Claims != len(corpus.Truth) {
		t.Fatalf("client-side truth has %d claims, server corpus %d", len(corpus.Truth), info.Claims)
	}
	if _, err := service.BuildCorpus(service.OpenRequest{Profile: "nope"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := service.BuildCorpus(service.OpenRequest{Profile: "wiki", Scale: -1}); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestRenderTable(t *testing.T) {
	res := runLibrary(t, testScenario())
	var buf bytes.Buffer
	res.RenderTable(&buf)
	out := buf.String()
	for _, want := range []string{"scenario test", "answers", "quality-vs-effort", "op latency", "informational"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestSampleCurve(t *testing.T) {
	long := make([]CurvePoint, 100)
	for i := range long {
		long[i].Answers = i
	}
	got := sampleCurve(long, 12)
	if len(got) < 10 || len(got) > 13 {
		t.Fatalf("sampled to %d points", len(got))
	}
	if got[0].Answers != 0 || got[len(got)-1].Answers != 99 {
		t.Fatalf("sample must keep endpoints: %v..%v", got[0].Answers, got[len(got)-1].Answers)
	}
	if n := len(sampleCurve(long[:5], 12)); n != 5 {
		t.Fatalf("short curve resampled to %d", n)
	}
}

func TestFmtSec(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		12e-6:  "12.0µs",
		3.5e-3: "3.50ms",
		2.25:   "2.250s",
	}
	for in, want := range cases {
		if got := fmtSec(in); got != want {
			t.Fatalf("fmtSec(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestStreamSeedsAreStable(t *testing.T) {
	// Two identically-built users must carry identical random streams.
	sc := testScenario()
	a, err := newFleetUser(sc, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newFleetUser(sc, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if a.drawThink() != b.drawThink() {
			t.Fatal("think streams diverged for identical users")
		}
	}
	c, err := newFleetUser(sc, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.drawThink() == c.drawThink() {
		t.Fatal("distinct users share a think stream")
	}
}
