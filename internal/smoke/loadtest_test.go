package smoke

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"factcheck/internal/workload"
)

// TestLoadtestSmoke runs factcheck-loadtest's mixed-fleet virtual run
// twice from the command line: the -out reports must be byte-identical,
// carry the JSON keys the report's readers use, and hold no
// wall-clock latency section. The runs' figures are pinned in process
// by internal/workload's tests.
func TestLoadtestSmoke(t *testing.T) {
	dir := t.TempDir()
	scenario := repoFile(t, "examples", "scenarios", "mixed-fleet.json")
	var reports [2][]byte
	for i := range reports {
		out := filepath.Join(dir, "report"+strconv.Itoa(i)+".json")
		run := exec.Command(binary(t, "cmd/factcheck-loadtest"), "-scenario", scenario, "-out", out, "-quiet")
		if log, err := run.CombinedOutput(); err != nil {
			t.Fatalf("factcheck-loadtest: %v\n%s", err, log)
		}
		var err error
		if reports[i], err = os.ReadFile(out); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("virtual reports differ across identical runs:\n%s\n%s", reports[0], reports[1])
	}
	// The wire names the report's readers key on: a renamed json tag
	// would still decode into workload.Report, so they are read raw.
	var keys map[string]json.RawMessage
	decode(t, reports[0], &keys)
	for _, k := range []string{"scenario", "mode", "usersStarted", "answers", "answersPerSecond", "opCounts", "quality", "usersPerGroup"} {
		if keys[k] == nil {
			t.Errorf("report has no %q key", k)
		}
	}
	if !bytes.Contains(keys["quality"], []byte(`"meanPrecision"`)) {
		t.Errorf("report's quality curve has no \"meanPrecision\": %s", keys["quality"])
	}
	if keys["latency"] != nil {
		t.Errorf("virtual report holds a wall-clock latency section: %s", keys["latency"])
	}
	var r workload.Report
	decode(t, reports[0], &r)
	if r.Scenario != "mixed-fleet" || r.Mode != workload.ModeVirtual || r.Errors != 0 || r.UsersStarted == 0 {
		t.Errorf("report scenario %q, mode %q, %d op errors, %d users started", r.Scenario, r.Mode, r.Errors, r.UsersStarted)
	}
}
