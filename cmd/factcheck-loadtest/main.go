// Command factcheck-loadtest drives scenario-defined user fleets
// against the guidance serving stack and reports latency, throughput
// and quality-vs-effort telemetry.
//
// A scenario file (see examples/scenarios/ and internal/workload)
// declares an arrival process — open-loop Poisson, closed-loop fixed
// concurrency, or a flash-crowd ramp — and a fleet of behavior profiles
// composed from the paper's §8 user models: oracle, erroneous-p,
// skipping, expert/crowd workers with log-normal think times, plus
// abandoning and bursty-revisit users.
//
// Two clock modes:
//
//   - virtual (default): a deterministic discrete-event simulation.
//     The JSON report is a pure function of (scenario, seed) — two runs
//     produce byte-identical reports, so reports can be diffed in CI.
//   - wall: goroutine-per-user real time (compressed by -time-scale),
//     for load-testing a live server with real latency percentiles.
//
// Usage:
//
//	factcheck-loadtest -scenario examples/scenarios/mixed-fleet.json
//	factcheck-loadtest -scenario s.json -out report.json
//	factcheck-loadtest -scenario s.json -target http://127.0.0.1:8080 \
//	    -mode wall -time-scale 100
//
// Without -target the fleet drives the serving stack in process
// (service.NewLocalClient: the API handler over a service.Manager, no
// listener and no socket) — same protocol. With -target it drives a
// live factcheck-server over HTTP with bounded retry-with-backoff on
// transient connection errors, and scrapes the server's GET /metrics
// into the report.
//
// The JSON report goes to -out (stdout by default); the human-readable
// table goes to stderr so piping the report stays clean.
package main

import (
	"flag"
	"fmt"
	"os"

	"factcheck/internal/obs"
	"factcheck/internal/service"
	"factcheck/internal/workload"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "scenario JSON file (required; see examples/scenarios/)")
		targetURL    = flag.String("target", "", "factcheck-server base URL (empty = in-process library target)")
		mode         = flag.String("mode", "", "clock mode override: virtual or wall (default: the scenario's mode)")
		seed         = flag.Int64("seed", 0, "seed override (0 = the scenario's seed)")
		duration     = flag.Float64("duration", 0, "duration override in virtual seconds (0 = the scenario's)")
		timeScale    = flag.Float64("time-scale", 0, "wall-mode time compression override (0 = the scenario's)")
		workers      = flag.Int("workers", 0, "worker lanes for the in-process target (0 = GOMAXPROCS)")
		out          = flag.String("out", "", "write the JSON report here (empty = stdout)")
		quiet        = flag.Bool("quiet", false, "suppress the human-readable table on stderr")
		logLevel     = flag.String("log-level", "", "structured-log level on stderr for the HTTP client's retry/backoff events (debug|info|warn|error; empty = silent)")
	)
	flag.Parse()
	if *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "factcheck-loadtest: -scenario is required")
		flag.Usage()
		os.Exit(2)
	}

	sc, err := workload.LoadScenario(*scenarioPath)
	if err != nil {
		fatal(err)
	}
	if *mode != "" {
		sc.Mode = *mode
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *duration != 0 {
		sc.DurationSeconds = *duration
	}
	if *timeScale != 0 {
		sc.WallTimeScale = *timeScale
	}

	var target *service.Client
	if *targetURL != "" {
		// A fleet run should ride out a server restart: transient
		// connection errors are retried under a bounded jittered backoff,
		// and the retry count lands in the report.
		target = service.NewClient(*targetURL)
		target.Retry = &service.RetryPolicy{MaxAttempts: 4}
		if *logLevel != "" {
			level, err := obs.ParseLevel(*logLevel)
			if err != nil {
				fatal(err)
			}
			target.Logger = obs.NewLogger(os.Stderr, "factcheck-loadtest", level)
		}
	} else {
		m := service.NewManager(service.Config{Workers: *workers, MaxSessions: 1 << 16})
		defer m.Shutdown()
		target = service.NewLocalClient(m)
	}

	res, err := workload.Run(sc, target)
	if err != nil {
		fatal(err)
	}
	buf, err := res.Report.EncodeJSON()
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	if !*quiet {
		res.RenderTable(os.Stderr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "factcheck-loadtest:", err)
	os.Exit(1)
}
