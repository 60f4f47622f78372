package obs

import (
	"strconv"
	"strings"
	"testing"

	"factcheck/internal/stats"
)

func TestExpoCounterGaugeShape(t *testing.T) {
	var e Expo
	e.Gauge("factcheck_sessions", "Live sessions.", nil, 3)
	e.Counter("factcheck_sheds_total", "Requests shed.", Labels{{"backend", "b1"}}, 7)
	out := string(e.Bytes())
	for _, want := range []string{
		"# HELP factcheck_sessions Live sessions.\n",
		"# TYPE factcheck_sessions gauge\n",
		"factcheck_sessions 3\n",
		"# TYPE factcheck_sheds_total counter\n",
		`factcheck_sheds_total{backend="b1"} 7` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpoLabelEscaping(t *testing.T) {
	var e Expo
	e.Gauge("g", "h", Labels{{"p", `a"b\c` + "\nd"}}, 1)
	want := `g{p="a\"b\\c\nd"} 1` + "\n"
	if !strings.Contains(string(e.Bytes()), want) {
		t.Fatalf("escaping wrong:\n%s", e.Bytes())
	}
}

func TestExpoHelpTypeOncePerName(t *testing.T) {
	var e Expo
	e.Gauge("g", "h", Labels{{"k", "a"}}, 1)
	e.Gauge("g", "h", Labels{{"k", "b"}}, 2)
	out := string(e.Bytes())
	if strings.Count(out, "# TYPE g gauge") != 1 {
		t.Fatalf("TYPE emitted more than once:\n%s", out)
	}
}

// TestHistogramCumulative checks the LogHist → native histogram
// mapping: le bounds are the log-buckets' upper edges, bucket values
// are cumulative, the series closes with +Inf equal to _count, and
// _sum reconstructs mean*count.
func TestHistogramCumulative(t *testing.T) {
	h := stats.NewLogHist()
	for _, v := range []float64{0.001, 0.001, 0.004, 0.1, 3} {
		h.Add(v)
	}
	var e Expo
	e.Histogram("lat", "Latency.", nil, h.Buckets(), h.Summary())
	out := string(e.Bytes())

	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "lat_bucket") {
			lines = append(lines, l)
		}
	}
	if len(lines) != len(h.Buckets())+1 {
		t.Fatalf("want %d bucket lines, got %d:\n%s", len(h.Buckets())+1, len(lines), out)
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `le="+Inf"`) || !strings.HasSuffix(last, " 5") {
		t.Fatalf("last bucket line not +Inf with total count: %q", last)
	}
	// Cumulative counts never decrease, and le bounds ascend.
	prevCount, prevLe := -1.0, -1.0
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", l, err)
		}
		if v < prevCount {
			t.Fatalf("cumulative counts decreased at %q", l)
		}
		prevCount = v
		leStr := l[strings.Index(l, `le="`)+4:]
		leStr = leStr[:strings.Index(leStr, `"`)]
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			t.Fatalf("parse le in %q: %v", l, err)
		}
		if le <= prevLe {
			t.Fatalf("le bounds not ascending at %q", l)
		}
		prevLe = le
	}
	if !strings.Contains(out, "lat_count 5\n") {
		t.Fatalf("missing lat_count:\n%s", out)
	}
	s := h.Summary()
	wantSum := strconv.FormatFloat(s.Mean*float64(s.Count), 'g', -1, 64)
	if !strings.Contains(out, "lat_sum "+wantSum+"\n") {
		t.Fatalf("missing lat_sum %s:\n%s", wantSum, out)
	}
}

// TestHistogramMergeThenExposeEqualsExposeThenMerge: absorbing two
// histograms' exported buckets into a fleet aggregate and exposing it
// yields the same exposition as exposing the pointwise-merged
// histogram — the property the router's fleet-aggregated /metrics
// relies on. It holds because AbsorbBuckets re-indexes each exported
// bucket at its geometric midpoint, which maps back to exactly the
// bucket it came from.
func TestHistogramMergeThenExposeEqualsExposeThenMerge(t *testing.T) {
	a, b := stats.NewLogHist(), stats.NewLogHist()
	for i := 0; i < 100; i++ {
		a.Add(0.001 * float64(i+1))
		b.Add(0.0007 * float64(3*i+1))
	}

	// Path 1: merge the live histograms, then expose.
	var direct stats.LogHist
	direct.Merge(a)
	direct.Merge(b)
	var e1 Expo
	e1.Histogram("lat", "h", nil, direct.Buckets(), direct.Summary())

	// Path 2: expose each (as /metrics does), absorb the exported
	// buckets (as the router does), then expose the aggregate.
	var absorbed stats.LogHist
	absorbed.AbsorbBuckets(a.Buckets(), a.Summary())
	absorbed.AbsorbBuckets(b.Buckets(), b.Summary())
	var e2 Expo
	e2.Histogram("lat", "h", nil, absorbed.Buckets(), absorbed.Summary())

	s1, s2 := string(e1.Bytes()), string(e2.Bytes())
	// _sum travels through mean*count on each leg; compare bucket and
	// count lines exactly and the sums numerically.
	stripSum := func(s string) (string, float64) {
		var kept []string
		var sum float64
		for _, l := range strings.Split(s, "\n") {
			if strings.HasPrefix(l, "lat_sum ") {
				sum, _ = strconv.ParseFloat(strings.TrimPrefix(l, "lat_sum "), 64)
				continue
			}
			kept = append(kept, l)
		}
		return strings.Join(kept, "\n"), sum
	}
	k1, sum1 := stripSum(s1)
	k2, sum2 := stripSum(s2)
	if k1 != k2 {
		t.Fatalf("merge-then-expose != expose-then-merge:\n--- direct ---\n%s\n--- absorbed ---\n%s", s1, s2)
	}
	if d := sum1 - sum2; d > 1e-9 || d < -1e-9 {
		t.Fatalf("sums diverge: %g vs %g", sum1, sum2)
	}
}
