package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
)

// Report is the -out document: where and how the run was made, and one
// result per workload.
type Report struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
	Trace      string  `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	CPU        string  `json:"cpu"`
	Load1      float64 `json:"load1"`
	// Correct is false when any operation failed or any output check
	// did; the process then exits non-zero.
	Correct   bool             `json:"correct"`
	Workloads []WorkloadResult `json:"workloads"`
}

// WorkloadResult is one workload's ledger page.
type WorkloadResult struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Ops are the operation and sample counts of the measured phase.
	Ops map[string]int `json:"ops"`
	// Digest hashes every session's answered claim sequence; it is the
	// same in the untraced and the traced pass, and in every run of the
	// same (workload, seed, size).
	Digest string `json:"traceDigest"`
	// PassSeconds is the measured phase's wall time per pass.
	PassSeconds map[string]float64 `json:"passSeconds"`
	EndToEnd    []Metric           `json:"endToEnd,omitempty"`
	PerLayer    []Metric           `json:"perLayer,omitempty"`
	// SelfTime splits the mean client.answer span into layer self times
	// (ms per answer); CrossCheck sets each ladder delta beside what the
	// stage histograms and wrappers say about the same layer.
	SelfTime   []Metric     `json:"selfTime,omitempty"`
	CrossCheck []CrossCheck `json:"crossCheck,omitempty"`
	Checks     []Check      `json:"checks"`
}

// Check is one output check's verdict.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// CrossCheck sets a layer's ladder delta (ms per answer) beside the
// traced pass's view of the same layer.
type CrossCheck struct {
	Layer  string  `json:"layer"`
	Ladder float64 `json:"ladderMs"`
	Traced float64 `json:"tracedMs"`
	From   string  `json:"tracedFrom"`
}

// metrics returns the end-to-end metrics followed by the per-layer ones.
func (r WorkloadResult) metrics() []Metric { return slices.Concat(r.EndToEnd, r.PerLayer) }

func (r WorkloadResult) metric(name string) (Metric, bool) {
	for _, m := range r.metrics() {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

func (r WorkloadResult) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func newReport(opt options) Report {
	r := Report{
		Seed: opt.seed, Seconds: opt.seconds, Quick: opt.quick, Trace: opt.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Correct: true,
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				r.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if buf, err := os.ReadFile("/proc/loadavg"); err == nil {
		_, _ = fmt.Sscan(string(buf), &r.Load1) // 0 when unreadable
	}
	return r
}

func (r Report) write(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readReport(path string) (Report, error) {
	var r Report
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func (r Report) printHeader(w io.Writer) {
	size := fmt.Sprintf("%g s per pass", r.Seconds)
	if r.Quick {
		size = "quick size"
	}
	fmt.Fprintf(w, "answer-cost ledger: seed %d, %s, trace %s\n", r.Seed, size, r.Trace)
	fmt.Fprintf(w, "%s, nproc %d, GOMAXPROCS %d, %s, load1 %.2f\n", r.CPU, r.NProc, r.GOMAXPROCS, r.GoVersion, r.Load1)
	if r.NProc < clients {
		fmt.Fprintf(w, "WARNING: nproc %d < %d: the two clients and the server lanes share one core, timings are not comparable with the reference box\n", r.NProc, clients)
	}
}

func printMetrics(w io.Writer, title string, ms []Metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(w, "  %s\n", title)
	for _, m := range ms {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(w, "    %-40s %14.6g %-8s%s\n", m.Name, m.Value, m.Unit, n)
	}
}

func (r WorkloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  digest %s\n", r.Name, r.Digest)
	fmt.Fprintf(w, "  ops:")
	for _, k := range []string{"sessions", "answers", "opens", "revives", "deltas", "attempted", "failed"} {
		if v, ok := r.Ops[k]; ok {
			fmt.Fprintf(w, " %s=%d", k, v)
		}
	}
	fmt.Fprintln(w)
	for _, k := range []string{"untraced", "traced"} {
		if v, ok := r.PassSeconds[k]; ok {
			fmt.Fprintf(w, "  %s pass: %.2f s\n", k, v)
		}
	}
	printMetrics(w, "end to end (tracing off)", r.EndToEnd)
	printMetrics(w, "per layer (traced pass, ladder, kernels)", r.PerLayer)
	printMetrics(w, "self time per answer along client.answer", r.SelfTime)
	if len(r.CrossCheck) > 0 {
		fmt.Fprintln(w, "  cross-check: ladder delta vs traced pass (ms per answer)")
		for _, c := range r.CrossCheck {
			fmt.Fprintf(w, "    %-10s ladder %9.4f   traced %9.4f  (%s)\n", c.Layer, c.Ladder, c.Traced, c.From)
		}
	}
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  check %-28s %s %s\n", c.Name, verdict, c.Detail)
	}
}

// driverLine is the one-line JSON result the BENCHMARK.json contract
// reads: the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one, restricted to those the contract lists.
func (r WorkloadResult) driverLine(traced bool) (string, error) {
	decls, have := endToEnd, r.EndToEnd
	if traced {
		decls, have = perLayer, r.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range decls {
		if !d.driver() {
			continue
		}
		for _, m := range have {
			if m.Name == d.name {
				metrics[m.Name] = value{m.Value, m.Unit}
			}
		}
	}
	buf, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.Ops["attempted"], 1), r.Ops["failed"], metrics})
	return string(buf), err
}
