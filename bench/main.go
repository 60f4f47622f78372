// Command bench is the repo's benchmark, the answer-cost ledger: it
// drives the real serving stack in-process from outside — session
// managers over file stores behind the HTTP handler on loopback
// listeners, one workload also behind the shard router — with a closed
// loop of two clients, and reports what a guided answer costs end to
// end and at every layer it crosses. See README.md in this directory.
//
//	go run ./bench                       all workloads, both passes
//	go run ./bench -workload fleet-churn -seed 7 -out run.json
//	go run ./bench -compare a1.json,a2.json b1.json,b2.json
//
// BENCHMARK.json's command (bench/run.sh) runs one workload and one
// pass per invocation and reads the JSON object on the last line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
)

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	quick   bool
	// trace selects the passes: "0" the untraced pass (end-to-end
	// metrics), "1" the traced pass (per-layer metrics), "both" both,
	// which adds the digest comparison and the tracing overhead.
	trace     string
	workloads []string
	out       string
	// dataRoot is where stacks keep their data directories; spanDir is
	// where the traced pass writes trace-<workload>.json.
	dataRoot, spanDir string
	// setups is how many times at least the untraced pass sets the stack
	// up, setupSeconds how long it keeps repeating cheap set-ups beyond
	// that; setup_s is the median.
	setups       int
	setupSeconds float64
}

const maxSetups = 9

func main() {
	var opt options
	var names string
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.Float64Var(&opt.seconds, "seconds", 15, "size of one pass: operation counts are fixed at what the reference box serves in this many seconds")
	flag.BoolVar(&opt.quick, "quick", false, "test size: about 1/20 of the operations on quarter-scale corpora")
	flag.StringVar(&opt.trace, "trace", "both", "passes to run: 0 = untraced (end-to-end metrics), 1 = traced (per-layer metrics), both")
	flag.StringVar(&names, "workload", "", "comma-separated workloads to run (default: all)")
	flag.StringVar(&opt.out, "out", "", "also write the report as JSON to this file")
	compare := flag.Bool("compare", false, "compare two sets of -out reports: -compare A.json[,A2.json…] B.json[,B2.json…]")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two arguments, each a comma-separated list of report files")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	if names != "" {
		opt.workloads = strings.Split(names, ",")
	}
	opt.dataRoot = filepath.Join(".bench_build", "tmp")
	opt.spanDir = filepath.Join("bench", "out")
	opt.setups, opt.setupSeconds = 3, 1.5
	report, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !report.Correct {
		os.Exit(1)
	}
}

// run executes the selected workloads and passes, prints the ledger to
// w and returns it. With one workload and one pass selected — how the
// BENCHMARK.json contract invokes it — the last line printed is the
// contract's JSON result.
func run(opt options, w io.Writer) (Report, error) {
	if opt.trace != "0" && opt.trace != "1" && opt.trace != "both" {
		return Report{}, fmt.Errorf("-trace %q: want 0, 1 or both", opt.trace)
	}
	if opt.seconds <= 0 {
		return Report{}, fmt.Errorf("-seconds %g: want a positive size", opt.seconds)
	}
	if opt.workloads == nil {
		for _, s := range workloads {
			opt.workloads = append(opt.workloads, s.name)
		}
	}
	report := newReport(opt)
	report.printHeader(w)
	for _, name := range opt.workloads {
		wi, s, ok := workloadByName(name)
		if !ok {
			return report, fmt.Errorf("unknown workload %q", name)
		}
		res, err := runWorkload(s.sized(opt.seconds, opt.quick), wi, opt)
		if err != nil {
			return report, fmt.Errorf("%s: %w", name, err)
		}
		res.print(w)
		report.Correct = report.Correct && res.correct()
		report.Workloads = append(report.Workloads, res)
	}
	if opt.out != "" {
		if err := report.write(opt.out); err != nil {
			return report, err
		}
	}
	if len(report.Workloads) == 1 && opt.trace != "both" {
		line, err := report.Workloads[0].driverLine(opt.trace == "1")
		if err != nil {
			return report, err
		}
		fmt.Fprintln(w, line)
	}
	return report, nil
}

// runWorkload runs the passes over one (sized) workload, the ladder and
// kernel rungs beside the traced pass, and the output checks.
func runWorkload(s spec, wi int, opt options) (WorkloadResult, error) {
	res := WorkloadResult{Name: s.name, Why: s.why, Ops: map[string]int{}, PassSeconds: map[string]float64{}}
	check := func(name string, err error) {
		c := Check{Name: name, OK: err == nil}
		if err != nil {
			c.Detail = err.Error()
		}
		res.Checks = append(res.Checks, c)
	}
	var untraced, traced *pass
	var err error
	if opt.trace != "1" {
		if untraced, err = runPass(s, wi, opt, false); err != nil {
			return res, err
		}
		res.PassSeconds["untraced"] = untraced.wall
		res.EndToEnd = endToEndMetrics(s, untraced)
	}
	if opt.trace != "0" {
		if traced, err = runPass(s, wi, opt, true); err != nil {
			return res, err
		}
		ladder, err := runLadder(s, wi, opt)
		if err != nil {
			return res, err
		}
		kernels, err := runKernels(s, wi, opt)
		if err != nil {
			return res, err
		}
		res.PassSeconds["traced"] = traced.wall
		res.PerLayer, res.SelfTime = perLayerMetrics(s, traced, append(kernels, ladder...))
		if untraced != nil {
			res.PerLayer = append(res.PerLayer, Metric{
				Name: "bench.trace_overhead_pct", Unit: "%", Value: (traced.wall/untraced.wall - 1) * 100,
			})
		}
		res.CrossCheck = crossCheck(res)
		if err := writeSpans(opt.spanDir, s.name, traced.spans); err != nil {
			return res, err
		}
	}

	first := untraced
	if first == nil {
		first = traced
	}
	res.Digest = first.digest()
	res.Ops["sessions"] = len(first.sessions)
	res.Ops["answers"] = len(first.answer)
	res.Ops["opens"] = len(first.open)
	res.Ops["attempted"] = first.attempted
	res.Ops["failed"] = first.failed
	if s.fleet {
		res.Ops["revives"] = len(first.revive)
	}
	if s.rounds > 0 {
		res.Ops["deltas"] = first.deltas
	}

	for _, side := range []struct {
		label string
		p     *pass
	}{{"untraced", untraced}, {"traced", traced}} {
		if side.p == nil {
			continue
		}
		var failures error
		if errs := side.p.errs; len(errs) > 0 {
			failures = fmt.Errorf("%d failure(s), first: %w", len(errs), errs[0])
		}
		check("no failed operation ("+side.label+")", failures)
	}
	want, err := libraryClaims(s, wi, opt)
	if err == nil && !reflect.DeepEqual(first.sessions[0].claims, want) {
		err = fmt.Errorf("served session #0 answered claims %v, the library path %v", first.sessions[0].claims, want)
	}
	check("session #0 equals library path", err)
	if untraced != nil && traced != nil {
		err = nil
		if u, t := untraced.digest(), traced.digest(); u != t {
			err = fmt.Errorf("untraced %s, traced %s", u, t)
		}
		check("digest equal in both passes", err)
	}
	if traced != nil {
		err = nil
		if m, _ := res.metric("bench.self_time_closure_pct"); m.Value < 95 || m.Value > 105 {
			err = fmt.Errorf("layer self times sum to %.1f%% of the client.answer spans", m.Value)
		}
		check("self times close on client.answer", err)
	}
	return res, nil
}

// libraryClaims runs session #0's script on the library path —
// core.OpenSession over the same corpus and options, an oracle over a
// truth vector that grows with the deltas, deltas applied at the same
// positions — and returns the claims it answered.
func libraryClaims(s spec, wi int, opt options) ([]int, error) {
	sess, t := newSession(s, opt.seed, wi, 0), &coreTarget{}
	var m samples
	var err error
	if s.fleet {
		// Spill and revive must be invisible: one uninterrupted session.
		if err = sess.waveA(t, &m, s); err == nil {
			err = sess.answers(t, &m, s.answers)
		}
	} else {
		err = sess.run(t, &m, s)
	}
	return sess.claims, err
}

// crossCheck sets each ladder delta beside the traced pass's account of
// the same layer. The two are measured independently (paired replay of
// one session vs spans and stage histograms over the whole workload);
// where they disagree, README.md records it as a finding.
func crossCheck(res WorkloadResult) []CrossCheck {
	v := func(name string) float64 { m, _ := res.metric(name); return m.Value }
	out := []CrossCheck{
		{"manager", v("service.manager_overhead_ms"), v("service.unattributed_ms"), "stage answer - resample - rescore - wal_append - lane_acquire"},
		{"wal", v("service.wal_overhead_ms"), v("service.stage_wal_append_ms"), "stage wal_append"},
		{"http", v("service.http_overhead_ms"), v("service.client_self_ms") + v("service.handler_self_ms"), "client self + handler self"},
	}
	if _, ok := res.metric("router.hop_ms"); ok {
		out = append(out, CrossCheck{"router", v("router.hop_ms"), v("router.self_ms"), "router.handle self"})
	}
	return out
}
