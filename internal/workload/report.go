package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"factcheck/internal/service"
	"factcheck/internal/stats"
)

// Operation labels used across telemetry.
const (
	opOpen   = "open"
	opNext   = "next"
	opAnswer = "answer"
	opIngest = "ingest"
	opDelete = "delete"
)

// recorder collects per-operation telemetry: counts, errors, and
// wall-clock latency histograms. It is shared by every user of a run;
// all methods are safe for concurrent use (the wall clock runs each
// user's callbacks on goroutines of their own).
type recorder struct {
	mu     sync.Mutex
	ops    map[string]*stats.LogHist
	counts map[string]int64
	errs   map[string]int64
}

func newRecorder() *recorder {
	return &recorder{
		ops:    make(map[string]*stats.LogHist),
		counts: make(map[string]int64),
		errs:   make(map[string]int64),
	}
}

// timed runs one operation, folding its wall latency (and error, if
// any) into the telemetry. The measured wall time never feeds back into
// scheduling, so it cannot perturb a virtual-clock run.
func (r *recorder) timed(op string, f func() error) error {
	start := time.Now()
	err := f()
	sec := time.Since(start).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[op]++
	if err != nil {
		r.errs[op]++
	} else {
		h, ok := r.ops[op]
		if !ok {
			h = stats.NewLogHist()
			r.ops[op] = h
		}
		h.Add(sec)
	}
	return err
}

func (r *recorder) snapshot() (counts, errs map[string]int64, latency map[string]stats.Summary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	counts = make(map[string]int64, len(r.counts))
	for k, v := range r.counts {
		counts[k] = v
	}
	errs = make(map[string]int64, len(r.errs))
	for k, v := range r.errs {
		errs[k] = v
	}
	latency = make(map[string]stats.Summary, len(r.ops))
	for k, h := range r.ops {
		latency[k] = h.Summary()
	}
	return counts, errs, latency
}

// CurvePoint is one point of the quality-vs-effort curve: the state of
// the fleet's sessions after their k-th answer, averaged over every
// session that got that far. Gain ties the curve back to the paper's
// Fig. 5–7 framing — precision bought per elicited answer.
type CurvePoint struct {
	// Answers is k, the number of answers submitted.
	Answers int `json:"answers"`
	// Sessions is how many sessions reached k answers.
	Sessions int `json:"sessions"`
	// MeanPrecision is the mean grounding precision at k.
	MeanPrecision float64 `json:"meanPrecision"`
	// MeanEffort is the mean labeled fraction |C_L|/|C| at k.
	MeanEffort float64 `json:"meanEffort"`
	// MeanGain is the mean precision improvement over the same
	// sessions' pre-validation baseline.
	MeanGain float64 `json:"meanGain"`
}

// Report is a run's result. In virtual mode it is a deterministic
// function of (scenario, seed): identical runs marshal to identical
// JSON bytes, so reports can be diffed and pinned in CI. The
// wall-clock-dependent sections (Latency, Server, Retries) are
// populated only in wall mode for exactly that reason.
type Report struct {
	Scenario string `json:"scenario"`
	Mode     string `json:"mode"`
	Target   string `json:"target"`
	Seed     int64  `json:"seed"`
	// DurationSeconds is the scenario horizon in virtual mode and the
	// measured elapsed wall time in wall mode.
	DurationSeconds float64 `json:"durationSeconds"`

	UsersStarted     int `json:"usersStarted"`
	UsersCompleted   int `json:"usersCompleted"`
	UsersAbandoned   int `json:"usersAbandoned"`
	UsersFailed      int `json:"usersFailed"`
	UsersActiveAtEnd int `json:"usersActiveAtEnd"`
	// UsersPerGroup counts started users per fleet group, keyed by the
	// group's name (or behavior kind when unnamed).
	UsersPerGroup map[string]int `json:"usersPerGroup"`

	Answers int64 `json:"answers"`
	Skips   int64 `json:"skips"`
	Errors  int64 `json:"errors"`
	// Retries counts transport retries by the HTTP client (wall mode
	// against a real server; always 0 in-process).
	Retries int64 `json:"retries,omitempty"`
	// AnswersPerSecond is Answers over DurationSeconds — virtual
	// throughput under the modeled think times, or real wall
	// throughput.
	AnswersPerSecond float64 `json:"answersPerSecond"`

	// OpCounts and OpErrors break operations down by kind
	// (open/next/answer/delete).
	OpCounts map[string]int64 `json:"opCounts"`
	OpErrors map[string]int64 `json:"opErrors,omitempty"`

	// Latency holds the measured per-operation wall-latency digests
	// (seconds). Wall mode only: wall measurements in a virtual report
	// would break bit-reproducibility.
	Latency map[string]stats.Summary `json:"latency,omitempty"`

	// Quality is the quality-vs-effort curve over the fleet.
	Quality []CurvePoint `json:"quality"`

	// Server is the target's /metrics scrape at the end of the run
	// (wall mode only).
	Server *service.Metrics `json:"server,omitempty"`

	// SLORungHistory records the overload controller's rung transitions
	// observed over the run, sampled from the target's metrics (wall
	// mode only — a wall-clock sampling schedule in a virtual report
	// would break bit-reproducibility). Empty when the target runs
	// without a controller.
	SLORungHistory []RungSample `json:"sloRungHistory,omitempty"`
}

// RungSample is one observed SLO-controller rung transition: the rung
// entered and the elapsed run seconds when the sampler first saw it.
type RungSample struct {
	T    float64 `json:"t"`
	Mode string  `json:"mode"`
}

// Result pairs the report with the informational wall-latency digests,
// which are always measured (virtual runs included) but only merged
// into the report in wall mode.
type Result struct {
	Report Report
	// WallLatency is the measured per-operation latency regardless of
	// mode; in wall mode it equals Report.Latency.
	WallLatency map[string]stats.Summary
}

// groupLabel names a fleet group in reports.
func groupLabel(g *FleetGroup) string {
	if g.Name != "" {
		return g.Name
	}
	return g.Behavior.Kind
}

// buildQuality folds the per-user precision/effort trajectories into
// the fleet curve. Users are sorted into index order first (the wall
// runner appends them in completion-race order) and sums are plain
// left-to-right additions, so the curve is deterministic for a fixed
// fleet regardless of how the runner interleaved the users.
func buildQuality(users []*fleetUser) []CurvePoint {
	users = append([]*fleetUser(nil), users...)
	sort.Slice(users, func(i, j int) bool { return users[i].idx < users[j].idx })
	maxK := 0
	for _, u := range users {
		if len(u.precisions)-1 > maxK {
			maxK = len(u.precisions) - 1
		}
	}
	var curve []CurvePoint
	for k := 0; k <= maxK; k++ {
		var prec, eff, gain float64
		n := 0
		for _, u := range users {
			if len(u.precisions) <= k {
				continue
			}
			n++
			prec += u.precisions[k]
			eff += u.efforts[k]
			gain += u.precisions[k] - u.precisions[0]
		}
		if n == 0 {
			continue
		}
		curve = append(curve, CurvePoint{
			Answers:       k,
			Sessions:      n,
			MeanPrecision: prec / float64(n),
			MeanEffort:    eff / float64(n),
			MeanGain:      gain / float64(n),
		})
	}
	return curve
}

// buildReport assembles the report from a finished run's users and
// telemetry.
func buildReport(sc *Scenario, target *service.Client, users []*fleetUser, rec *recorder, elapsed float64, wall bool, rungs []RungSample) *Result {
	counts, errs, latency := rec.snapshot()
	// A client with no server address is service.NewLocalClient's.
	kind := "http"
	if target.BaseURL == "" {
		kind = "library"
	}
	r := Report{
		Scenario:        sc.Name,
		Mode:            sc.mode(),
		Target:          kind,
		Seed:            sc.Seed,
		DurationSeconds: elapsed,
		UsersStarted:    len(users),
		UsersPerGroup:   make(map[string]int),
		OpCounts:        counts,
		Quality:         buildQuality(users),
	}
	if len(errs) > 0 {
		r.OpErrors = errs
	}
	for _, u := range users {
		r.UsersPerGroup[groupLabel(&sc.Fleet[u.groupIdx])]++
		r.Answers += int64(u.answers)
		r.Skips += int64(u.skips)
		switch u.outcome {
		case outcomeCompleted:
			r.UsersCompleted++
		case outcomeAbandoned:
			r.UsersAbandoned++
		case outcomeFailed:
			r.UsersFailed++
		default:
			r.UsersActiveAtEnd++
		}
	}
	for _, n := range errs {
		r.Errors += n
	}
	if elapsed > 0 {
		r.AnswersPerSecond = float64(r.Answers) / elapsed
	}
	if wall {
		r.Latency = latency
		r.Retries = target.Retries()
		r.SLORungHistory = rungs
		if m, err := target.Metrics(true); err == nil {
			r.Server = &m
		}
	}
	return &Result{Report: r, WallLatency: latency}
}

// MarshalJSON is not customised; reports marshal with encoding/json,
// which sorts map keys — together with the deterministic aggregation
// above this is what makes virtual reports byte-identical across runs.
// EncodeJSON renders the report as indented JSON with a trailing
// newline.
func (r *Report) EncodeJSON() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// RenderTable writes the human-readable run summary. The wall-latency
// digests are always shown; in virtual mode they are marked as
// informational since they are not part of the (reproducible) report.
func (res *Result) RenderTable(w io.Writer) {
	r := &res.Report
	fmt.Fprintf(w, "scenario %s  (mode=%s target=%s seed=%d)\n", r.Scenario, r.Mode, r.Target, r.Seed)
	fmt.Fprintf(w, "  duration   %10.1fs   users %d started / %d completed / %d abandoned / %d failed / %d active\n",
		r.DurationSeconds, r.UsersStarted, r.UsersCompleted, r.UsersAbandoned, r.UsersFailed, r.UsersActiveAtEnd)
	groups := make([]string, 0, len(r.UsersPerGroup))
	for g := range r.UsersPerGroup {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	parts := make([]string, 0, len(groups))
	for _, g := range groups {
		parts = append(parts, fmt.Sprintf("%s=%d", g, r.UsersPerGroup[g]))
	}
	fmt.Fprintf(w, "  fleet      %s\n", strings.Join(parts, " "))
	fmt.Fprintf(w, "  answers    %7d (%.3f/s)   skips %d   errors %d   retries %d\n",
		r.Answers, r.AnswersPerSecond, r.Skips, r.Errors, r.Retries)

	note := ""
	if r.Mode == ModeVirtual {
		note = "   (informational: excluded from the virtual-mode report)"
	}
	ops := make([]string, 0, len(res.WallLatency))
	for op := range res.WallLatency {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	if len(ops) > 0 {
		fmt.Fprintf(w, "  op latency%s\n", note)
		fmt.Fprintf(w, "    %-8s %9s %12s %12s %12s %12s\n", "op", "count", "p50", "p90", "p99", "max")
		for _, op := range ops {
			s := res.WallLatency[op]
			fmt.Fprintf(w, "    %-8s %9d %12s %12s %12s %12s\n",
				op, s.Count, fmtSec(s.P50), fmtSec(s.P90), fmtSec(s.P99), fmtSec(s.Max))
		}
	}
	if len(r.Quality) > 0 {
		fmt.Fprintf(w, "  quality-vs-effort\n")
		fmt.Fprintf(w, "    %8s %9s %10s %8s %8s\n", "answers", "sessions", "precision", "effort", "gain")
		for _, p := range sampleCurve(r.Quality, 12) {
			fmt.Fprintf(w, "    %8d %9d %10.4f %8.4f %+8.4f\n",
				p.Answers, p.Sessions, p.MeanPrecision, p.MeanEffort, p.MeanGain)
		}
	}
	if r.Server != nil {
		fmt.Fprintf(w, "  server     sessions=%d spilled=%d lanes=%d/%d answers=%d p99=%s\n",
			r.Server.Sessions, r.Server.Spilled, r.Server.WorkersGranted, r.Server.WorkersTotal,
			r.Server.AnswersServed, fmtSec(r.Server.AnswerLatency.P99))
		if len(r.Server.Stages) > 0 {
			stages := make([]string, 0, len(r.Server.Stages))
			for st := range r.Server.Stages {
				stages = append(stages, st)
			}
			sort.Strings(stages)
			parts := make([]string, 0, len(stages))
			for _, st := range stages {
				parts = append(parts, fmt.Sprintf("%s p99=%s", st, fmtSec(r.Server.Stages[st].P99)))
			}
			fmt.Fprintf(w, "  stage p99  %s\n", strings.Join(parts, "  "))
		}
		if c := r.Server.Controller; c != nil {
			fmt.Fprintf(w, "  slo        mode=%s p99=%s/%s breaches=%d shed=%d degraded=%d\n",
				c.Mode, fmtSec(c.WindowP99), fmtSec(c.SLOSeconds), c.Breaches, c.Sheds, c.DegradedAnswers)
		}
	}
	if len(r.SLORungHistory) > 0 {
		parts := make([]string, 0, len(r.SLORungHistory))
		for _, s := range r.SLORungHistory {
			parts = append(parts, fmt.Sprintf("%s@%s", s.Mode, fmtSec(s.T)))
		}
		fmt.Fprintf(w, "  slo rungs  %s\n", strings.Join(parts, " -> "))
	}
}

// sampleCurve thins a long curve to about n rows for the table (the
// JSON report always carries every point).
func sampleCurve(curve []CurvePoint, n int) []CurvePoint {
	if len(curve) <= n {
		return curve
	}
	out := make([]CurvePoint, 0, n+1)
	step := float64(len(curve)-1) / float64(n)
	last := -1
	for i := 0; i <= n; i++ {
		idx := int(float64(i) * step)
		if idx >= len(curve) {
			idx = len(curve) - 1
		}
		if idx == last {
			continue
		}
		last = idx
		out = append(out, curve[idx])
	}
	return out
}

func fmtSec(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}
