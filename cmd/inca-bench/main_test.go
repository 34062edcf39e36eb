package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunCLI drives the flag surface end to end through run(): usage errors
// exit 1 with a message on stderr, the pre-suite flag spellings are gone, and
// the vi suite gates clean against the checked-in snapshot.
func TestRunCLI(t *testing.T) {
	tests := []struct {
		name      string
		args      []string
		code      int
		stdout    string // substring expected on stdout
		stderr    string // substring expected on stderr
		skipShort bool
	}{
		{name: "unknown suite", args: []string{"-suite=nope"}, code: 1, stderr: `unknown -suite "nope"`},
		{name: "snapshot without suite", args: []string{"-snapshot", "x.json"}, code: 1, stderr: "-snapshot needs -suite"},
		{name: "unknown scale", args: []string{"-scale", "huge"}, code: 1, stderr: `unknown -scale "huge"`},
		{name: "unknown experiment", args: []string{"-e", "E99"}, code: 1, stderr: `unknown experiment "E99"`},
		{name: "removed -datapath", args: []string{"-datapath", "x.json"}, code: 1, stderr: "flag provided but not defined: -datapath"},
		{name: "removed -cluster", args: []string{"-cluster", "x.json"}, code: 1, stderr: "flag provided but not defined: -cluster"},
		{name: "removed -cluster-gate", args: []string{"-cluster-gate", "x.json"}, code: 1, stderr: "flag provided but not defined: -cluster-gate"},
		{name: "removed -sched", args: []string{"-sched", "x.json"}, code: 1, stderr: "flag provided but not defined: -sched"},
		{name: "removed -sched-gate", args: []string{"-sched-gate", "x.json"}, code: 1, stderr: "flag provided but not defined: -sched-gate"},
		{name: "missing baseline", args: []string{"-suite=vi", "-gate", "no-such-baseline.json"}, code: 1, stderr: "vi-gate baseline", skipShort: true},
		{name: "one experiment", args: []string{"-e", "e3"}, code: 0, stdout: "== E3:"},
		{name: "vi gate", args: []string{"-suite=vi", "-gate", "../../BENCH_vi.json"}, code: 0, stdout: "vi-gate: ok vs ../../BENCH_vi.json", skipShort: true},
	}
	// The gate must really compare: neutralise the operator's escape hatches.
	t.Setenv("INCA_BENCH_GATE", "")
	t.Setenv("INCA_BENCH_GATE_TOL", "")
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skipShort && testing.Short() {
				t.Skip("runs the vi suite")
			}
			var out, errw bytes.Buffer
			if code := run(tc.args, &out, &errw); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, out.String(), errw.String())
			}
			if !strings.Contains(out.String(), tc.stdout) {
				t.Errorf("stdout missing %q:\n%s", tc.stdout, out.String())
			}
			if !strings.Contains(errw.String(), tc.stderr) {
				t.Errorf("stderr missing %q:\n%s", tc.stderr, errw.String())
			}
		})
	}
}
