package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seededModule writes a one-file module whose package trips two analyzers on
// one line: testonly (an exported func nothing calls) and determinism (a
// wall-clock read inside the simulation core).
func seededModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	src := "package iau\n\nimport \"time\"\n\n// Stamp has no caller.\nfunc Stamp() int64 { return time.Now().UnixNano() }\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module inca\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "internal", "iau"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "internal", "iau", "iau.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRunCLI drives the multichecker through run(): findings exit 1 in
// position order, -report prints them and exits 0, -only narrows the suite,
// and an unknown analyzer or a directory that is not a module exits 2.
func TestRunCLI(t *testing.T) {
	mod := seededModule(t)
	tests := []struct {
		name   string
		args   []string
		code   int
		lines  []string // expected on stdout, one finding per line, in position order
		stderr string   // substring expected on stderr
	}{
		{name: "findings", args: []string{"-dir", mod}, code: 1,
			lines: []string{"[testonly] iau.Stamp has no non-test reference", "[determinism] wall-clock read time.Now"}, stderr: "inca-lint: 2 finding(s)"},
		{name: "report", args: []string{"-dir", mod, "-report"}, code: 0,
			lines: []string{"[testonly]", "[determinism]"}, stderr: "inca-lint: 2 finding(s)"},
		{name: "only testonly", args: []string{"-dir", mod, "-only", "testonly"}, code: 1,
			lines: []string{"[testonly] iau.Stamp"}, stderr: "inca-lint: 1 finding(s)"},
		{name: "unknown analyzer", args: []string{"-dir", mod, "-only", "testonly,nodeprecated"}, code: 2,
			stderr: `inca-lint: unknown analyzer "nodeprecated"`},
		{name: "no module", args: []string{"-dir", t.TempDir()}, code: 2, stderr: "inca-lint: lint: reading module file"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := run(tc.args, &out, &errw); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, out.String(), errw.String())
			}
			got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			if out.Len() == 0 {
				got = nil
			}
			if len(got) != len(tc.lines) {
				t.Fatalf("stdout has %d lines, want %d:\n%s", len(got), len(tc.lines), out.String())
			}
			for i, want := range tc.lines {
				if !strings.Contains(got[i], want) {
					t.Errorf("line %d = %q, want it to contain %q", i, got[i], want)
				}
			}
			if !strings.Contains(errw.String(), tc.stderr) {
				t.Errorf("stderr missing %q:\n%s", tc.stderr, errw.String())
			}
		})
	}
}
