package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"factcheck/internal/analysis"
)

// TestRepoSelfScan runs the full suite over the module — the same scan
// `factcheck-lint ./...` (and make lint) performs — and asserts it
// comes back clean. Every invariant the analyzers encode holds over
// the tree that ships them; new violations fail here before they fail
// in CI.
func TestRepoSelfScan(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check; skipped in -short")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("self-scan loaded only %d packages; loader lost the tree", len(pkgs))
	}
	for _, d := range analysis.Run(analysis.All(), pkgs...) {
		t.Errorf("%v", d)
	}
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
