package smoke

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamples runs the four examples and an auto-answered
// factcheck-session, and compares each output with the one committed
// under examples/testdata/ byte for byte. newsstream's "avg model
// update" line is a wall-clock timing, the only line that differs
// between runs, and is dropped first. A change that moves an output
// says why and recaptures the file from the output printed here.
func TestExamples(t *testing.T) {
	for _, c := range []struct {
		dir  string
		args []string
	}{
		{"examples/quickstart", nil},
		{"examples/healthforum", nil},
		{"examples/crowdsourcing", nil},
		{"examples/newsstream", nil},
		{"cmd/factcheck-session", []string{"-auto", "-profile", "snopes", "-scale", "0.02"}},
	} {
		name := filepath.Base(c.dir)
		t.Run(name, func(t *testing.T) {
			run := exec.Command(binary(t, c.dir), c.args...)
			var stderr bytes.Buffer
			run.Stderr = &stderr
			out, err := run.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			var got []byte
			for _, line := range bytes.SplitAfter(out, []byte("\n")) {
				if !bytes.HasPrefix(line, []byte("avg model update")) {
					got = append(got, line...)
				}
			}
			want, err := os.ReadFile(repoFile(t, "examples", "testdata", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from examples/testdata/%s.txt; got\n%s", name, got)
			}
		})
	}
}
