package service

import (
	"encoding/json"
	"net/http"
	"testing"
)

func TestMetricsEndpoint(t *testing.T) {
	client, _ := newTestServer(t, Config{Workers: 2})

	m0, err := client.Metrics(false)
	if err != nil {
		t.Fatal(err)
	}
	if m0.SessionsOpened != 0 || m0.AnswersServed != 0 || m0.AnswerLatency.Count != 0 {
		t.Fatalf("fresh metrics not zero: %+v", m0)
	}
	if m0.WorkersTotal != 2 {
		t.Fatalf("workersTotal = %d", m0.WorkersTotal)
	}

	info, err := client.Open(fastOpen("wiki", 0.05, 3))
	if err != nil {
		t.Fatal(err)
	}
	const answers = 3
	mustAnswers(t, client, info.ID, answers)

	m1, err := client.Metrics(false)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Sessions != 1 || m1.SessionsOpened != 1 {
		t.Fatalf("session counts = %+v", m1)
	}
	if m1.AnswersServed != answers || m1.AnswerLatency.Count != answers {
		t.Fatalf("answer counts = %+v", m1)
	}
	if m1.AnswerLatency.P50 <= 0 || m1.AnswerLatency.Max < m1.AnswerLatency.P50 {
		t.Fatalf("latency digest not sane: %+v", m1.AnswerLatency)
	}
	if len(m1.AnswerLatencyBuckets) != 0 {
		t.Fatalf("buckets included without ?buckets=1: %+v", m1.AnswerLatencyBuckets)
	}

	mb, err := client.Metrics(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(mb.AnswerLatencyBuckets) == 0 {
		t.Fatal("?buckets=1 returned no buckets")
	}
	var total int64
	for _, b := range mb.AnswerLatencyBuckets {
		total += b.Count
	}
	if total != mb.AnswerLatency.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, mb.AnswerLatency.Count)
	}

	// The boolean query flags read as booleans: =0 is off, like absent.
	for _, tc := range []struct {
		path, field string
		want        bool
	}{
		{"/v1/metrics?buckets=1", "answerLatencyBuckets", true},
		{"/v1/metrics?buckets=0", "answerLatencyBuckets", false},
		{"/v1/sessions/" + info.ID + "/state?marginals=1", "marginals", true},
		{"/v1/sessions/" + info.ID + "/state?marginals=0", "marginals", false},
	} {
		resp, err := http.Get(client.BaseURL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, got := body[tc.field]; got != tc.want {
			t.Fatalf("GET %s: %s present = %v, want %v", tc.path, tc.field, got, tc.want)
		}
	}

	// A rejected answer (wrong claim) must not count as served.
	if _, err := client.Answer(info.ID, AnswerRequest{Claim: -5}); err == nil {
		t.Fatal("expected a wrong-claim rejection")
	}
	m2, err := client.Metrics(false)
	if err != nil {
		t.Fatal(err)
	}
	if m2.AnswersServed != answers {
		t.Fatalf("rejected answer counted: %+v", m2)
	}
}

// TestMergeMetrics: the fleet view of two scrapes — counters and gauges
// sum, keyed counters sum per key, histograms pool their observations.
func TestMergeMetrics(t *testing.T) {
	m := NewManager(Config{Workers: 1, SLO: SLOConfig{P99: 10}})
	defer m.Shutdown()
	info, err := m.Open(fastOpen("wiki", 0.05, 3))
	if err != nil {
		t.Fatal(err)
	}
	mustAnswers(t, NewLocalClient(m), info.ID, 3)
	spill(t, m, 1)
	mustAnswers(t, NewLocalClient(m), info.ID, 1) // one image revival
	one := m.Metrics(true)
	one.RestoresReplay = map[string]int64{"none": 2}

	got := MergeMetrics("fleet", []Metrics{one, one}, false)
	if got.BackendID != "fleet" || got.Sessions != 2 || got.WorkersTotal != 2 ||
		got.SessionsOpened != 2 || got.AnswersServed != 8 || got.RestoresImage != 2 ||
		got.ImageBytesWritten != 2*one.ImageBytesWritten || got.GainCacheMisses != 2*one.GainCacheMisses ||
		one.TableBuilds == 0 || got.TableBuilds != 2*one.TableBuilds {
		t.Errorf("counters did not sum: %+v", got)
	}
	if got.RestoresReplay["none"] != 4 || got.Endpoints["answer"].Requests != 8 {
		t.Errorf("keyed counters did not sum: %v %v", got.RestoresReplay, got.Endpoints)
	}
	if got.Controller == nil || got.Controller.Mode != one.Controller.Mode {
		t.Errorf("controller status = %+v, want mode %q", got.Controller, one.Controller.Mode)
	}
	if got.AnswerLatency.Count != 8 || got.AnswerLatency.Max != one.AnswerLatency.Max ||
		got.Stages["restore"].Count != 2 {
		t.Errorf("histograms did not pool: %+v, restore %+v", got.AnswerLatency, got.Stages["restore"])
	}
	if got.AnswerLatencyBuckets != nil || got.StageBuckets != nil {
		t.Error("buckets kept without withBuckets")
	}
	if wb := MergeMetrics("fleet", []Metrics{one}, true); len(wb.AnswerLatencyBuckets) == 0 || len(wb.StageBuckets["restore"]) == 0 {
		t.Error("withBuckets dropped the merged buckets")
	}
	if empty := MergeMetrics("fleet", nil, true); empty.Endpoints != nil || empty.Stages != nil || empty.Controller != nil {
		t.Errorf("merge of nothing is not empty: %+v", empty)
	}
}
