package smoke

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"factcheck/internal/router"
	"factcheck/internal/service"
	"factcheck/internal/workload"
)

// TestRouterSmoke boots three factcheck-server backends on one shared
// -data-dir behind factcheck-router and drives one session through the
// router while the fleet degrades under it: the owning backend is
// SIGKILLed (the next owner revives the session from the shared WAL),
// then the next owner is drained through /fleet/leave (a live
// export/import). The served trace must stay the library path's. Then
// a wall-mode factcheck-loadtest runs the router-fleet preset through
// the router across a mid-run drain and rejoin, and the fleet-wide
// telemetry must show it. On failure the logs are copied to
// router-smoke-logs/ at the repository root.
func TestRouterSmoke(t *testing.T) {
	dir := t.TempDir()
	t.Cleanup(func() {
		if t.Failed() {
			keepLogs(t, dir)
		}
	})
	backends := make([]*proc, 3)
	bases := make([]string, len(backends))
	for i := range backends {
		backends[i] = start(t, dir, fmt.Sprintf("backend%d.log", i+1), "factcheck-server", "-addr", "127.0.0.1:0",
			"-id", fmt.Sprintf("b%d", i+1), "-idle-ttl", "1m", "-data-dir", filepath.Join(dir, "data"), "-checkpoint-every", "3")
		bases[i] = backends[i].base
	}
	rt := start(t, dir, "router.log", "factcheck-router", "-addr", "127.0.0.1:0",
		"-probe-interval", "500ms", "-backends", strings.Join(bases, ","))
	var fleet router.FleetStatus
	decode(t, must(t, "GET", rt.base+"/v1/fleet", ""), &fleet)
	if len(fleet.RingMembers) != 3 {
		t.Fatalf("fleet has ring members %v, want 3", fleet.RingMembers)
	}

	s := &service.Script{Client: service.NewClient(rt.base)}
	if _, err := s.Open("", openReq); err != nil {
		t.Fatal(err)
	}
	answers := func() {
		t.Helper()
		if _, err := s.Answers(3); err != nil {
			t.Fatal(err)
		}
	}
	answers()
	owner := ownerOf(t, backends)
	backends[owner].kill()
	// The router sees the transport error, drops the owner from the
	// ring, and the next answers reach the new owner.
	answers()
	mustMatch(t, rt.output(), `marked down`)
	next := ownerOf(t, backends)
	if next == owner {
		t.Fatalf("b%d still owns the session after its SIGKILL", owner+1)
	}
	leave := `{"url":"` + bases[next] + `"}`
	must(t, "POST", rt.base+"/v1/fleet/leave", leave)
	mustMatch(t, rt.output(), `"msg":"session migrated".*"session":"`+s.ID+`"`)
	answers()
	sameTrace(t, snapshot(t, rt.base, s.ID), libraryTrace(t, openReq, 9, -1, nil))
	if err := s.Client.Delete(s.ID); err != nil {
		t.Fatal(err)
	}

	// A closed-loop fleet rides a drain and a rejoin out through
	// Retry-After; the drain waits until the run is answering.
	must(t, "POST", rt.base+"/v1/fleet/join", leave)
	served := func() int64 {
		m, err := s.Client.Metrics(false)
		if err != nil {
			t.Fatal(err)
		}
		return m.AnswersServed
	}
	idle := served()
	report := filepath.Join(dir, "report.json")
	lt := spawn(t, dir, "loadtest.log", "factcheck-loadtest", "-scenario", repoFile(t, "examples", "scenarios", "router-fleet.json"),
		"-target", rt.base, "-mode", "wall", "-time-scale", "40", "-duration", "240", "-out", report, "-quiet")
	for deadline := time.Now().Add(30 * time.Second); served() <= idle; time.Sleep(20 * time.Millisecond) {
		if !lt.alive() || time.Now().After(deadline) {
			t.Fatalf("the loadtest answered nothing through the router\n%s", lt.output())
		}
	}
	must(t, "POST", rt.base+"/v1/fleet/leave", leave)
	must(t, "POST", rt.base+"/v1/fleet/join", leave)
	<-lt.done
	if lt.err != nil {
		t.Fatalf("wall loadtest through the router: %v\n%s", lt.err, lt.output())
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var r workload.Report
	decode(t, data, &r)
	if r.Errors != 0 || r.UsersStarted == 0 || r.Server == nil || r.Server.BackendID != "fleet" || len(r.Server.Endpoints) == 0 {
		t.Fatalf("wall report through the drain: errors %d, users %d, fleet scrape %+v", r.Errors, r.UsersStarted, r.Server)
	}
	mustMatch(t, prom(t, rt.base), `backend="fleet"`, `^factcheck_migrations_total\S* [1-9]`)

	rt.term(t)
	mustMatch(t, rt.output(), `factcheck-router: stopped`)
}

// ownerOf is the index of the live backend whose own healthz holds the
// session.
func ownerOf(t *testing.T, backends []*proc) int {
	t.Helper()
	for i, b := range backends {
		if !b.alive() {
			continue
		}
		if h, err := service.NewClient(b.base).Health(); err == nil && h.Sessions == 1 {
			return i
		}
	}
	t.Fatal("no live backend holds the session")
	return -1
}

// keepLogs copies the test's logs to router-smoke-logs/ at the
// repository root, where CI uploads them from.
func keepLogs(t *testing.T, dir string) {
	keep := filepath.Join(root, "router-smoke-logs")
	logs, _ := filepath.Glob(filepath.Join(dir, "*.log"))
	for _, log := range logs {
		data, err := os.ReadFile(log)
		if err == nil {
			err = os.MkdirAll(keep, 0o755)
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(keep, filepath.Base(log)), data, 0o644)
		}
		if err != nil {
			t.Logf("keeping %s: %v", log, err)
		}
	}
	t.Logf("logs copied to %s", keep)
}
