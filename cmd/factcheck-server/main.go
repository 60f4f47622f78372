// Command factcheck-server serves the Alg. 1 guidance loop over HTTP to
// many concurrent validation sessions. Each session runs the full
// validation process of §5 — guidance ranking, user verdicts, iCRF
// incremental inference — behind a JSON API; all sessions multiplex onto
// one bounded worker budget sized to the machine, and idle sessions are
// evicted after a TTL. Selection traces are bit-identical to the
// in-process library path for a fixed seed.
//
// Every endpoint lives under /v1; the route table in internal/service
// (Server.routes) is the reference and the README's Endpoints section
// renders it. In short: POST /v1/sessions opens (or restores) a session,
// GET /v1/sessions/{id}/next?k=K ranks, POST .../answer submits a
// verdict, POST .../claims streams a corpus delta in, GET .../snapshot
// and DELETE persist and close, and GET /v1/healthz and /v1/metrics
// (?format=prometheus for text exposition) report liveness and serving
// telemetry — what factcheck-loadtest scrapes.
//
// Every request carries an X-Factcheck-Trace id (honored when the
// client sends one, minted otherwise), echoed on the response, stamped
// into JSON error envelopes, and attached to the structured request
// logs -log-level controls. -debug-addr starts an opt-in net/http/pprof
// listener on a separate port.
//
// Usage:
//
//	factcheck-server -addr 127.0.0.1:8080 -workers 8 -idle-ttl 30m
//	factcheck-server -addr 127.0.0.1:0     # pick a free port, announce it
//	factcheck-server -data-dir /var/lib/factcheck  # durable sessions
//	factcheck-server -slo-p99 0.5                  # overload controller on
//	factcheck-server -log-level debug -debug-addr 127.0.0.1:6060
//
// With -slo-p99 set, an overload controller watches the windowed
// answer-latency p99 against the SLO: on a sustained breach it degrades
// ranking from what-if scoring to the precomputed uncertainty order,
// and if worker-lane contention persists it additionally sheds load —
// new sessions and un-servable answers get 429 + Retry-After, which
// the bundled client and shard router honor.
//
// With -data-dir set, every session is checkpointed to disk at open,
// each answer is appended to a per-session write-ahead log before the
// response is sent, and a fresh state image is checkpointed every
// -checkpoint-every answers — so a server killed at any instant
// (SIGKILL included) recovers all sessions on the next boot with the
// same -data-dir and serves them with bit-identical selection traces.
// Without -data-dir,
// sessions survive idle eviction (they spill to an in-memory store) but
// not the process.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"factcheck/internal/edge"
	"factcheck/internal/persist"
	"factcheck/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		backendID   = flag.String("id", "", "backend id reported in /metrics, so a shard router's fleet view can attribute load (empty = anonymous)")
		workers     = flag.Int("workers", 0, "shared worker-lane budget across all sessions (0 = GOMAXPROCS)")
		idleTTL     = flag.Duration("idle-ttl", 30*time.Minute, "spill sessions idle this long to the snapshot store (0 disables eviction)")
		maxSessions = flag.Int("max-sessions", 1024, "maximum concurrently live sessions (spilled sessions don't count)")
		dataDir     = flag.String("data-dir", "", "directory for durable session storage (empty = in-memory store: sessions survive eviction, not the process)")
		ckptEvery   = flag.Int("checkpoint-every", 16, "checkpoint a fresh state image every N answers (a restore replays at most N behind it)")
		sloP99      = flag.Float64("slo-p99", 0, "answer-latency p99 SLO in seconds; enables the overload controller (degrade what-if scoring, then shed with 429 + Retry-After) — 0 disables")
		observe     = edge.ObsFlags()
	)
	flag.Parse()

	logger, err := observe("factcheck-server")
	if err != nil {
		fatal(err)
	}
	var store persist.Store
	if *dataDir != "" {
		fs, err := persist.NewFileStore(*dataDir)
		if err != nil {
			fatal(err)
		}
		store = fs
	}
	manager := service.NewManager(service.Config{
		BackendID:       *backendID,
		Workers:         *workers,
		MaxSessions:     *maxSessions,
		IdleTTL:         *idleTTL,
		Store:           store,
		CheckpointEvery: *ckptEvery,
		SLO:             service.SLOConfig{P99: *sloP99},
	})
	if recovered, err := manager.RecoverAll(); err != nil {
		fmt.Fprintf(os.Stderr, "factcheck-server: recovery: %v\n", err)
	} else if *dataDir != "" {
		fmt.Printf("factcheck-server: recovered %d stored session(s) from %s\n", recovered, *dataDir)
	}
	if *sloP99 > 0 {
		fmt.Printf("factcheck-server: overload controller armed (answer p99 SLO %gs)\n", *sloP99)
	}
	srv := service.NewServer(manager)
	srv.SetLogger(logger)
	detail := fmt.Sprintf("workers=%d max-sessions=%d idle-ttl=%s", manager.Budget().Total(), *maxSessions, *idleTTL)
	if err := edge.Serve("factcheck-server", *addr, detail, srv.Handler(), manager.Shutdown); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
