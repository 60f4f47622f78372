package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"factcheck/internal/obs"
)

// TestTraceNeutralityProperty is the observability acceptance property:
// instrumentation must be passive. Two managers run the same fixed-seed
// session — one driven through the plain API, one through the ctx
// variants with a trace id on every request (spans recorded, trace ids
// threaded) — and their selection traces, transcripts, and posterior
// states must be bit-identical. Runs under `make race` so the span and
// stage recording is also exercised for data races.
func TestTraceNeutralityProperty(t *testing.T) {
	for _, seed := range []int64{5, 19, 53} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plain := NewManager(Config{Workers: 2})
			defer plain.Shutdown()
			traced := NewManager(Config{Workers: 2})
			defer traced.Shutdown()

			req := fastOpen("wiki", 0.08, seed)
			pi, err := plain.Open(req)
			if err != nil {
				t.Fatal(err)
			}
			ti, err := traced.Open(req)
			if err != nil {
				t.Fatal(err)
			}
			const traceID = "neutrality-trace"
			ctx := obs.WithTrace(context.Background(), traceID)

			const steps = 5
			for i := 0; i < steps; i++ {
				pn, err := plain.NextCtx(context.Background(), pi.ID, 2)
				if err != nil {
					t.Fatal(err)
				}
				tn, err := traced.NextCtx(ctx, ti.ID, 2)
				if err != nil {
					t.Fatal(err)
				}
				if pn.Done != tn.Done {
					t.Fatalf("step %d: done diverged: plain %v, traced %v", i, pn.Done, tn.Done)
				}
				if pn.Done {
					break
				}
				if pn.Candidates[0].Claim != tn.Candidates[0].Claim {
					t.Fatalf("step %d: selection diverged: plain %d, traced %d",
						i, pn.Candidates[0].Claim, tn.Candidates[0].Claim)
				}
				if _, err := plain.AnswerCtx(context.Background(), pi.ID, AnswerRequest{Claim: pn.Candidates[0].Claim, Oracle: true}); err != nil {
					t.Fatal(err)
				}
				if _, err := traced.AnswerCtx(ctx, ti.ID, AnswerRequest{Claim: tn.Candidates[0].Claim, Oracle: true}); err != nil {
					t.Fatal(err)
				}
			}

			// Transcripts byte-identical.
			ps, err := plain.Snapshot(pi.ID)
			if err != nil {
				t.Fatal(err)
			}
			ts, err := traced.Snapshot(ti.ID)
			if err != nil {
				t.Fatal(err)
			}
			pj, _ := json.Marshal(ps.Elicitations)
			tj, _ := json.Marshal(ts.Elicitations)
			if !bytes.Equal(pj, tj) {
				t.Fatalf("transcripts diverged:\nplain:  %s\ntraced: %s", pj, tj)
			}

			// Posterior state bit-identical.
			pst, err := plain.State(pi.ID, true)
			if err != nil {
				t.Fatal(err)
			}
			tst, err := traced.State(ti.ID, true)
			if err != nil {
				t.Fatal(err)
			}
			if pst.Z != tst.Z || pst.Precision != tst.Precision {
				t.Fatalf("state diverged: plain (z=%v, p=%v), traced (z=%v, p=%v)",
					pst.Z, pst.Precision, tst.Z, tst.Precision)
			}
			if !reflect.DeepEqual(pst.Marginals, tst.Marginals) {
				t.Fatal("marginals diverged between plain and traced runs")
			}

			// The traced run actually recorded its spans with the id —
			// passivity must not mean the instrumentation is dead.
			tr, err := traced.Trace(ti.ID)
			if err != nil {
				t.Fatal(err)
			}
			sawTraced := false
			for _, sp := range tr.Spans {
				if sp.Stage == obs.StageResample && sp.Trace == traceID {
					sawTraced = true
				}
			}
			if !sawTraced {
				t.Fatalf("traced run recorded no resample span carrying %q: %+v", traceID, tr.Spans)
			}
			pr, err := plain.Trace(pi.ID)
			if err != nil {
				t.Fatal(err)
			}
			for _, sp := range pr.Spans {
				if sp.Trace != "" {
					t.Fatalf("plain run recorded a trace id from nowhere: %+v", sp)
				}
			}
		})
	}
}

// TestPromTextExposition drives a couple of answers and checks the
// Prometheus rendering end to end: counters carry the backend label,
// the latency histogram ends at le="+Inf" with the full count, and the
// per-stage histograms cover the answer path.
func TestPromTextExposition(t *testing.T) {
	m := NewManager(Config{Workers: 2, BackendID: "b1"})
	defer m.Shutdown()
	info, err := m.Open(fastOpen("wiki", 0.08, 9))
	if err != nil {
		t.Fatal(err)
	}
	const answers = 2
	mustAnswers(t, NewLocalClient(m), info.ID, answers)

	out := string(PromText(m.Metrics(true)))
	for _, want := range []string{
		"# TYPE factcheck_answers_served_total counter",
		fmt.Sprintf(`factcheck_answers_served_total{backend="b1"} %d`, answers),
		"# TYPE factcheck_answer_latency_seconds histogram",
		fmt.Sprintf(`factcheck_answer_latency_seconds_bucket{backend="b1",le="+Inf"} %d`, answers),
		fmt.Sprintf(`factcheck_answer_latency_seconds_count{backend="b1"} %d`, answers),
		"# TYPE factcheck_stage_latency_seconds histogram",
		`stage="resample"`,
		`stage="lane_acquire"`,
		`stage="answer"`,
		`factcheck_gain_cache_`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "factcheck_slo_rung") {
		t.Fatalf("controller series rendered with no controller configured:\n%s", out)
	}
}
