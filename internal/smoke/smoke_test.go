// Package smoke drives the built commands end to end: factcheck-server
// through a SIGKILL and a restart, three of them behind factcheck-router
// through a failover and a drain, and factcheck-loadtest from its command
// line. Every request goes through service.Client and service.Script,
// and every served trace is held against the in-process library path.
// The package holds tests only; `make serve-smoke`, `make router-smoke`
// and `make loadtest-smoke` run one test each.
package smoke

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/factdb"
	"factcheck/internal/service"
	"factcheck/internal/sim"
)

// root is the repository root, seen from this package's directory.
var root = filepath.Join("..", "..")

// openReq is the session every smoke drives: three communities, so the
// incremental dirty-component re-ranking (DESIGN.md §12) re-scores
// part of the corpus, which the trace comparison then checks.
var openReq = service.OpenRequest{Profile: "wiki", Scale: 0.1, Seed: 42, CandidatePool: 8, Communities: 3}

var (
	binDir string
	built  = map[string]string{}
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "factcheck-smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// binary builds cmd/<name> once per test process and returns its path.
// go test caches a pass keyed on the packages it imports and the files
// the test opens, and a command is neither, so its sources are
// stat'ed here: an edit to them then invalidates a cached result.
func binary(t *testing.T, name string) string {
	t.Helper()
	if path, ok := built[name]; ok {
		return path
	}
	srcs, err := filepath.Glob(filepath.Join(root, "cmd", name, "*.go"))
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no sources for cmd/%s: %v", name, err)
	}
	for _, src := range srcs {
		if _, err := os.Stat(src); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(binDir, name)
	build := exec.Command("go", "build", "-o", path, "./cmd/"+name)
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	built[name] = path
	return path
}

// repoFile returns the path of a file under the repository root that a
// command reads, stat'ed for the test cache like binary's sources.
func repoFile(t *testing.T, rel ...string) string {
	t.Helper()
	path := filepath.Join(append([]string{root}, rel...)...)
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// proc is one command running under a test, its stdout and stderr
// going to a log file in the test's directory.
type proc struct {
	log  string
	cmd  *exec.Cmd
	done chan struct{}
	err  error // cmd.Wait's, once done is closed
	base string
}

// spawn starts a command. It is killed, if still running, when the
// test ends, and its log is printed if the test failed.
func spawn(t *testing.T, dir, log, name string, args ...string) *proc {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, log))
	if err != nil {
		t.Fatal(err)
	}
	p := &proc{log: f.Name(), cmd: exec.Command(binary(t, name), args...), done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = f, f
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.err = p.cmd.Wait(); f.Close(); close(p.done) }()
	t.Cleanup(func() {
		p.kill()
		if t.Failed() {
			t.Logf("--- %s ---\n%s", log, p.output())
		}
	})
	return p
}

// start spawns a server or router on a free port and waits, bounded,
// for its "<name> listening on http://…" announce.
func start(t *testing.T, dir, log, name string, args ...string) *proc {
	t.Helper()
	p := spawn(t, dir, log, name, args...)
	announce := regexp.MustCompile(`(?m)^` + name + ` listening on (http://\S+)`)
	deadline := time.After(15 * time.Second)
	for {
		if m := announce.FindStringSubmatch(p.output()); m != nil {
			p.base = m[1]
			return p
		}
		select {
		case <-p.done:
			t.Fatalf("%s exited before announcing an address: %v\n%s", name, p.err, p.output())
		case <-deadline:
			t.Fatalf("%s announced no address within 15s\n%s", name, p.output())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func (p *proc) output() string {
	b, _ := os.ReadFile(p.log)
	return string(b)
}

func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// kill sends SIGKILL and waits for the exit.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// term sends SIGTERM and waits for the drained exit.
func (p *proc) term(t *testing.T) {
	t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	<-p.done
	if p.err != nil {
		t.Fatalf("exit after SIGTERM: %v\n%s", p.err, p.output())
	}
}

// call sends one request service.Client has no method for. A
// transport error fails the test.
func call(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// must is call that fails the test unless the answer is a 200.
func must(t *testing.T, method, url, body string) []byte {
	t.Helper()
	resp, data := call(t, method, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %s\n%s", method, url, resp.Status, data)
	}
	return data
}

func decode(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("decode %T: %v\n%s", v, err, data)
	}
}

func snapshot(t *testing.T, base, id string) service.SessionSnapshot {
	t.Helper()
	var snap service.SessionSnapshot
	decode(t, must(t, "GET", base+"/v1/sessions/"+id+"/snapshot", ""), &snap)
	return snap
}

// prom scrapes base's Prometheus exposition and fails the test unless
// scripts/prom_lint.sh accepts it.
func prom(t *testing.T, base string) string {
	t.Helper()
	text := must(t, "GET", base+"/v1/metrics?format=prometheus", "")
	lint := exec.Command(repoFile(t, "scripts", "prom_lint.sh"))
	lint.Stdin = bytes.NewReader(text)
	if out, err := lint.CombinedOutput(); err != nil {
		t.Fatalf("malformed Prometheus exposition: %v\n%s\n%s", err, out, text)
	}
	return string(text)
}

// mustMatch fails the test for each pattern (multi-line mode) that
// text does not match.
func mustMatch(t *testing.T, text string, patterns ...string) {
	t.Helper()
	for _, p := range patterns {
		if !regexp.MustCompile(`(?m)` + p).MatchString(text) {
			t.Errorf("nothing matches %s in:\n%s", p, text)
		}
	}
}

// libraryTrace is the claim sequence the in-process Alg. 1 loop asks
// for the session req opens: core.OpenSession over service.BuildCorpus
// with the served options, steps answers by the §8.1 oracle, and delta
// (when non-nil) ingested after ingestAfter of them.
func libraryTrace(t *testing.T, req service.OpenRequest, steps, ingestAfter int, delta *factdb.Delta) []int {
	t.Helper()
	opts, err := service.BuildOptions(req)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := service.BuildCorpus(req)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.OpenSession(corpus.DB, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle reads Truth at call time, so the delta's truth
	// appended there answers for the claims it brings.
	oracle := &sim.Oracle{Truth: corpus.Truth}
	for i := 0; i < steps; i++ {
		if delta != nil && i == ingestAfter {
			if _, err := s.Ingest(*delta); err != nil {
				t.Fatal(err)
			}
			oracle.Truth = append(oracle.Truth, delta.Truth...)
		}
		if s.Step(oracle) {
			break
		}
	}
	return claims(s.Snapshot().Elicitations)
}

// claims is a transcript's asked claims, arrival records left out.
func claims(es []core.Elicitation) []int {
	var out []int
	for _, e := range es {
		if e.Ingest == nil {
			out = append(out, e.Claim)
		}
	}
	return out
}

// sameTrace fails the test unless the served transcript asked the
// claims the library path asks.
func sameTrace(t *testing.T, served service.SessionSnapshot, library []int) {
	t.Helper()
	if got := claims(served.Elicitations); !slices.Equal(got, library) {
		t.Errorf("served trace diverged from the library path:\nserved:  %v\nlibrary: %v", got, library)
	}
}
