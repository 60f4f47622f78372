package main

import (
	"bytes"
	"strings"
	"testing"
)

// A bad invocation is a one-line message and exit 2, never a panic out
// of synth (-scale 0 used to die in Profile.Scaled with a stack trace).
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		code       int
		stdoutHas  string
		stderrHas  string
		stderrOnly bool // exactly one line on stderr, nothing on stdout
	}{
		{"zero scale", []string{"-scale", "0"}, 2, "", "-scale must be positive, got 0", true},
		{"negative scale", []string{"-scale", "-0.5", "-stats"}, 2, "", "-scale must be positive, got -0.5", true},
		{"NaN scale", []string{"-scale", "NaN"}, 2, "", "-scale must be positive", true},
		{"unknown profile", []string{"-profile", "nope"}, 2, "", "nope", true},
		{"unknown flag", []string{"-bogus"}, 2, "", "flag provided but not defined", false},
		{"stats", []string{"-scale", "0.05", "-stats"}, 0, "credible claims:", "", false},
		{"json", []string{"-profile", "snopes", "-scale", "0.002", "-seed", "3"}, 0, `"posting_order"`, "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdoutHas) {
				t.Errorf("stdout %q lacks %q", stdout.String(), tc.stdoutHas)
			}
			if !strings.Contains(stderr.String(), tc.stderrHas) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.stderrHas)
			}
			if tc.stderrOnly && (stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1) {
				t.Errorf("want one stderr line and no stdout; stdout %q stderr %q", stdout.String(), stderr.String())
			}
		})
	}
}
