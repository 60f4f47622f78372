package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenConfig is the one configuration testdata/tables.txt is pinned
// at: every dataset at about 30 claims, one run, one worker.
func goldenConfig() Config {
	return Config{TargetClaims: 30, Seed: 7, Runs: 1, CandidatePool: 8, Workers: 1}
}

// TestGoldenTables runs every experiment whose table is a pure function
// of the seed — §8's paper path: per-answer EM, cache-less scoring,
// batch mode, Alg. 2, confirmation checks and the §6.1 indicators — and
// compares what it prints with testdata/tables.txt byte for byte. The
// file is what `factcheck-bench -exp <id> -claims 30 -seed 7 -pool 8
// -workers 1` prints for each, without the "[… finished in …]" lines; a
// change that moves it must say why and regenerate it in a commit of
// its own.
func TestGoldenTables(t *testing.T) {
	cfg := goldenConfig()
	var b strings.Builder
	for _, e := range Experiments() {
		if !e.Timed {
			fmt.Fprintf(&b, "%s\n\n", e.Run(cfg))
		}
	}
	want, err := os.ReadFile("testdata/tables.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("the §8 tables moved off testdata/tables.txt: %s\ngot\n%s", firstDiff(got, string(want)), got)
	}
}

// firstDiff names the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d is %q, want %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}
