package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunCLI drives the mission front-end through run() at a short mission
// length: argument errors and output failures exit 1 with a message on
// stderr, -trace writes both agents' trace and metrics files, -frames its
// PNGs, and -chaos reports the recovery counters.
func TestRunCLI(t *testing.T) {
	dir := t.TempDir()
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(dir, "dslam")
	tests := []struct {
		name   string
		args   []string
		code   int
		stdout string // substring expected on stdout
		stderr string // substring expected on stderr
		files  []string
	}{
		{name: "bad flag", args: []string{"-nope"}, code: 1, stderr: "flag provided but not defined: -nope"},
		{name: "unknown policy", args: []string{"-policy", "rr"}, code: 1, stderr: `inca-dslam: unknown policy "rr"`},
		{name: "unwritable frames", args: []string{"-duration", "300ms", "-frames", filepath.Join(notDir, "frames")}, code: 1,
			stdout: "agent 1:", stderr: "inca-dslam: writing " + filepath.Join(notDir, "frames", "agent0_t00s.png")},
		{name: "trace, frames and map", args: []string{"-duration", "300ms", "-trace", prefix, "-frames", filepath.Join(dir, "frames"), "-map"}, code: 0,
			stdout: "agent 1 trace: " + prefix + ".agent1.json",
			files: []string{prefix + ".agent0.json", prefix + ".agent0.metrics.json", prefix + ".agent1.json", prefix + ".agent1.metrics.json",
				filepath.Join(dir, "frames", "agent0_t16s.png")}},
		{name: "chaos", args: []string{"-duration", "300ms", "-chaos"}, code: 0,
			stdout: "  recovery          "},
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
			for _, f := range tc.files {
				if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
					t.Errorf("%s not written: %v", f, err)
				}
			}
		})
	}
}

// TestRunDeterministic: the mission report is a pure function of the flags.
func TestRunDeterministic(t *testing.T) {
	args := []string{"-duration", "300ms", "-chaos", "-v"}
	var first, second, errw bytes.Buffer
	if code := run(args, &first, &errw); code != 0 {
		t.Fatalf("exit %d\n%s", code, errw.String())
	}
	if code := run(args, &second, &errw); code != 0 {
		t.Fatalf("exit %d\n%s", code, errw.String())
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("same flags, different output:\n%s\n---\n%s", first.String(), second.String())
	}
}
