// Command factcheck-router is the placement layer of a scaled-out
// fact-checking fleet: it spreads sessions across N factcheck-server
// backends with a consistent-hash ring (virtual nodes), health-probes
// the fleet, and serves the exact single-server HTTP API — so
// service.Client, factcheck-loadtest, curl scripts, and anything else
// written against one server drives a whole fleet unchanged.
//
// On top of the proxied session API it adds a control plane:
//
//	GET  /v1/fleet        fleet membership, health, per-backend load
//	POST /v1/fleet/join   {"url": "http://backend"} — add a backend and
//	                      rebalance (misplaced sessions migrate live)
//	POST /v1/fleet/leave  {"url": "http://backend"} — drain a backend:
//	                      every session it owns migrates to its new ring
//	                      owner, then it leaves the fleet
//	GET  /v1/healthz      fleet-summed health
//	GET  /v1/metrics      fleet-aggregated serving telemetry
//	                      (?format=prometheus for text exposition, with
//	                      router placement series appended)
//
// Every request gets an X-Factcheck-Trace id (minted here unless the
// client sent a valid one) that is forwarded on the proxy hop, echoed
// on the response, and attached to the structured request logs
// -log-level controls; migrations mint their own id and stamp it on
// every export/import/delete control call. -debug-addr starts an
// opt-in net/http/pprof listener on a separate port.
//
// Sessions move between backends as their portable checkpoint+WAL
// records (export → import → tombstone), rebuilt by the same replay
// path crash recovery uses — selection traces stay bit-identical
// across a migration. Requests that land mid-migration get 503 with
// Retry-After, which service.Client rides out transparently. If a
// backend dies outright (SIGKILL), the router drops it from the ring
// on the first transport error; with backends sharing one -data-dir,
// the new ring owner revives the session from the write-ahead log and
// the trace continues without a gap.
//
// Usage:
//
//	factcheck-router -addr 127.0.0.1:9090 \
//	    -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//	factcheck-router -addr 127.0.0.1:0 -backends ...   # free port, announced
//
// SIGTERM drains gracefully: in-flight requests finish, then the
// router exits. Sessions stay on their backends — the router holds no
// session state, so restarting it (with the same backend set) restores
// identical placement.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"factcheck/internal/edge"
	"factcheck/internal/router"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9090", "listen address (port 0 picks a free port)")
		backends = flag.String("backends", "", "comma-separated backend base URLs to join at boot")
		probe    = flag.Duration("probe-interval", 2*time.Second, "health-probe period")
		observe  = edge.ObsFlags()
	)
	flag.Parse()

	logger, err := observe("factcheck-router")
	if err != nil {
		fatal(err)
	}
	rt := router.New(router.Config{
		ProbeInterval: *probe,
		Logger:        logger,
	})
	joined := 0
	for _, b := range strings.Split(*backends, ",") {
		b = strings.TrimSpace(b)
		if b == "" {
			continue
		}
		if err := rt.Join(b); err != nil {
			fatal(fmt.Errorf("factcheck-router: %v", err))
		}
		joined++
	}
	detail := fmt.Sprintf("backends=%d probe=%s", joined, *probe)
	if err := edge.Serve("factcheck-router", *addr, detail, rt.Handler(), rt.Close); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
