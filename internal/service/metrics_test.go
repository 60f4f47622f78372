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
	for i := 0; i < answers; i++ {
		next, err := client.Next(info.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		if next.Done {
			t.Fatalf("session done after %d answers", i)
		}
		if _, err := client.Answer(info.ID, AnswerRequest{Claim: next.Candidates[0].Claim, Oracle: true}); err != nil {
			t.Fatal(err)
		}
	}

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
