package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inca/internal/cluster"
)

// TestRunCLI drives the serving front-end through run(): usage and argument
// errors exit 1 with a message on stderr, a same-seed stream prints the same
// report twice, -functional verifies every completion against the golden
// interpreter, and the -json report parses back into cluster.Stats.
func TestRunCLI(t *testing.T) {
	dir := t.TempDir()
	report, perfetto := filepath.Join(dir, "stats.json"), filepath.Join(dir, "serve.trace.json")
	tests := []struct {
		name   string
		args   []string
		code   int
		stdout string // substring expected on stdout
		stderr string // substring expected on stderr
	}{
		{name: "bad flag", args: []string{"-nope"}, code: 1, stderr: "flag provided but not defined: -nope"},
		{name: "no tasks", args: []string{"-tasks", "0"}, code: 1, stderr: "inca-serve: workload: cluster: workload needs at least one task"},
		{name: "no engines", args: []string{"-engines", "0", "-tasks", "4"}, code: 1, stderr: "inca-serve: cluster: cluster: need at least one engine"},
		{name: "unwritable report", args: []string{"-tasks", "4", "-json", filepath.Join(dir, "missing", "stats.json")}, code: 1, stderr: "inca-serve: create "},
		{name: "timing only", args: []string{"-engines", "2", "-tasks", "16"}, code: 0,
			stdout: "cluster: 2 engines, 16 offered -> 16 completed, 0 shed"},
		{name: "functional under faults", args: []string{"-engines", "2", "-tasks", "16", "-hang", "0.05", "-corrupt", "0.05", "-functional"}, code: 0,
			stdout: "completed inferences bit-exact vs golden"},
		{name: "json report", args: []string{"-engines", "2", "-tasks", "16", "-json", report}, code: 0, stdout: "wrote " + report},
		{name: "cluster trace", args: []string{"-engines", "2", "-tasks", "16", "-hang", "0.05", "-trace", perfetto}, code: 0, stdout: "wrote " + perfetto},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
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
			if tc.code == 0 && errw.Len() != 0 {
				t.Errorf("clean run wrote to stderr:\n%s", errw.String())
			}
		})
	}

	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var st cluster.Stats
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("-json report does not parse: %v\n%s", err, data)
	}
	if st.Engines != 2 || st.Offered != 16 || st.Completed+st.Shed != st.Offered || len(st.PerEngine) != 2 {
		t.Errorf("-json report ledger: %+v", st)
	}
}

// TestRunDeterministic: the report is a pure function of the flags — the same
// stream, faults and outcome listing included, prints byte-identical stdout —
// and -functional does not move it: cycles never depend on whether a task
// carries an arena, so the functional run prints the timing-only report plus
// its golden verdict line.
func TestRunDeterministic(t *testing.T) {
	for _, args := range [][]string{
		{"-engines", "2", "-tasks", "16"},
		{"-engines", "4", "-tasks", "24", "-hang", "0.05", "-corrupt", "0.05", "-stall", "0.05", "-outcomes"},
	} {
		var first, second, errw bytes.Buffer
		if code := run(args, &first, &errw); code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, errw.String())
		}
		if code := run(args, &second, &errw); code != 0 {
			t.Fatalf("%v: second run exit %d\n%s", args, code, errw.String())
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%v: stdout differs between runs:\n%s\n---\n%s", args, first.String(), second.String())
		}
		var functional bytes.Buffer
		if code := run(append(args, "-functional"), &functional, &errw); code != 0 {
			t.Fatalf("%v -functional: exit %d\n%s", args, code, errw.String())
		}
		verdict, ok := bytes.CutPrefix(functional.Bytes(), first.Bytes())
		if !ok || !bytes.HasPrefix(verdict, []byte("functional: ")) || bytes.Count(verdict, []byte("\n")) != 1 {
			t.Errorf("%v: -functional is not the timing-only report plus one verdict line:\n%s\n---\n%s", args, first.String(), functional.String())
		}
	}
}
