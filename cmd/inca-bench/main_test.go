package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"inca/internal/bench"
)

var update = flag.Bool("update", false, "rewrite the transcript goldens under testdata/ from this build")

// TestTranscriptGolden holds the paper-figure experiments' quick-scale
// transcript to the checked-in golden byte for byte. A change that moves a
// number regenerates it with `go test ./cmd/inca-bench -run
// TestTranscriptGolden -update`; the golden's diff is what the change moved.
// Never edit the golden by hand.
func TestTranscriptGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five experiments")
	}
	golden := filepath.Join("testdata", "quick_e1-e4_e7.txt")
	var out, errw bytes.Buffer
	if code := run([]string{"-e", "E1,E2,E3,E4,E7", "-scale", "quick"}, &out, &errw); code != 0 || errw.Len() != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errw.String())
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gl), len(wl)) {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("transcript differs from %s at line %d:\n got: %q\nwant: %q\n(regenerate with -update if the move is intended)", golden, i+1, g, w)
			}
		}
	}
}

// TestRunCLI drives the flag surface end to end through run(): usage errors
// exit 1 with a message on stderr, the pre-suite flag spellings are gone, the
// vi suite gates clean against the checked-in snapshot, and -snapshot with
// -gate in one invocation does both.
func TestRunCLI(t *testing.T) {
	fresh := filepath.Join(t.TempDir(), "fresh.json")
	tests := []struct {
		name      string
		args      []string
		code      int
		stdout    string // substring expected on stdout
		stderr    string // substring expected on stderr
		skipShort bool
	}{
		{name: "unknown suite", args: []string{"-suite=nope"}, code: 1, stderr: `unknown -suite "nope" (datapath|cluster|sched|vi)`},
		{name: "snapshot without suite", args: []string{"-snapshot", "x.json"}, code: 1, stderr: "-snapshot and -gate need -suite"},
		{name: "gate without suite", args: []string{"-gate", "../../BENCH_datapath.json"}, code: 1, stderr: "-snapshot and -gate need -suite"},
		{name: "unknown scale", args: []string{"-scale", "huge"}, code: 1, stderr: `unknown -scale "huge"`},
		{name: "unknown experiment", args: []string{"-e", "E99"}, code: 1, stderr: `unknown experiment "E99"`},
		{name: "retired E13", args: []string{"-e", "E13"}, code: 1, stderr: `unknown experiment "E13"`},
		{name: "removed -datapath", args: []string{"-datapath", "x.json"}, code: 1, stderr: "flag provided but not defined: -datapath"},
		{name: "removed -cluster", args: []string{"-cluster", "x.json"}, code: 1, stderr: "flag provided but not defined: -cluster"},
		{name: "removed -cluster-gate", args: []string{"-cluster-gate", "x.json"}, code: 1, stderr: "flag provided but not defined: -cluster-gate"},
		{name: "removed -sched", args: []string{"-sched", "x.json"}, code: 1, stderr: "flag provided but not defined: -sched"},
		{name: "removed -sched-gate", args: []string{"-sched-gate", "x.json"}, code: 1, stderr: "flag provided but not defined: -sched-gate"},
		{name: "removed -reps", args: []string{"-suite=datapath", "-reps", "1"}, code: 1, stderr: "flag provided but not defined: -reps"},
		{name: "missing baseline", args: []string{"-suite=vi", "-gate", "no-such-baseline.json"}, code: 1, stderr: "vi-gate: baseline: open no-such-baseline.json", skipShort: true},
		{name: "one experiment", args: []string{"-e", "e3"}, code: 0, stdout: "== E3:"},
		{name: "vi gate", args: []string{"-suite=vi", "-gate", "../../BENCH_vi.json"}, code: 0, stdout: "vi-gate: ok vs ../../BENCH_vi.json", skipShort: true},
		// One invocation writes a snapshot and gates against the file it just
		// wrote: -gate must not swallow -snapshot.
		{name: "snapshot then gate", args: []string{"-suite=sched", "-snapshot", fresh, "-gate", fresh}, code: 0,
			stdout: "wrote " + fresh + "\nsched-gate: ok vs " + fresh, skipShort: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skipShort && testing.Short() {
				t.Skip("runs a snapshot suite")
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
	if !testing.Short() {
		want, err := os.ReadFile("../../BENCH_sched.json")
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(fresh); err != nil || !bytes.Equal(got, want) {
			t.Errorf("-snapshot alongside -gate did not write the checked-in bytes (err %v)", err)
		}
	}
}

// TestGateCatchesDriftBothWays seeds one changed value into a temp copy of
// each suite's checked-in snapshot, first so the fresh measurement looks worse
// than the file, then better: both must exit 1 naming the key, the checked-in
// value and the measured value, with the regenerate hint.
func TestGateCatchesDriftBothWays(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every snapshot suite twice")
	}
	// One gated key per suite; the doctored number is the integer part of its
	// first occurrence, moved by ±1.
	keys := map[string]string{
		"datapath": "model_gmacs_b1",
		"cluster":  "p99_cycles",
		"sched":    "deadline_misses",
		"vi":       "measured_worst_cycles",
	}
	for _, s := range bench.Suites {
		key, ok := keys[s.Name]
		if !ok {
			t.Errorf("suite %q has no drift key: add one", s.Name)
			continue
		}
		data, err := os.ReadFile(filepath.Join("..", "..", s.File))
		if err != nil {
			t.Fatal(err)
		}
		loc := regexp.MustCompile(`"` + key + `": (\d+)([0-9.]*)`).FindSubmatchIndex(data)
		if loc == nil {
			t.Fatalf("%s has no %q", s.File, key)
		}
		whole, _ := strconv.Atoi(string(data[loc[2]:loc[3]]))
		frac := string(data[loc[4]:loc[5]])
		for _, delta := range []int{-1, +1} {
			t.Run(fmt.Sprintf("%s%+d", s.Name, delta), func(t *testing.T) {
				doctored := filepath.Join(t.TempDir(), s.File)
				edited := fmt.Sprintf("%s%d%s", data[:loc[2]], whole+delta, data[loc[3]:])
				if err := os.WriteFile(doctored, []byte(edited), 0o644); err != nil {
					t.Fatal(err)
				}
				var out, errw bytes.Buffer
				if code := run([]string{"-suite=" + s.Name, "-gate", doctored}, &out, &errw); code != 1 {
					t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
				}
				for _, want := range []string{
					fmt.Sprintf("\"%s\": %d%s,\n  + ", key, whole+delta, frac), // the checked-in line
					fmt.Sprintf("\"%s\": %d%s,\n", key, whole, frac),           // the measured line
					"make bench-baseline",
				} {
					if !strings.Contains(errw.String(), want) {
						t.Errorf("stderr missing %q:\n%s", want, errw.String())
					}
				}
			})
		}
	}
}

// TestRunSuiteRefusesContractViolation: a measurement that breaks the suite's
// baseline-free contract fails before -snapshot or -gate see it, so the
// snapshot file is never created.
func TestRunSuiteRefusesContractViolation(t *testing.T) {
	var vi bench.Suite
	for _, s := range bench.Suites {
		if s.Name == "vi" {
			vi = s
		}
	}
	vi.Measure = func() (any, *bench.Table, error) {
		return &bench.VISnapshot{Models: []bench.VIModel{{
			Name: "FE", Budget: 400,
			Every:    bench.VIPlacement{Policy: "every", Points: 10, StreamBytes: 1000, VirSaveBytes: 500, Bound: 100, MeasuredWorst: 101, Preemptions: 5},
			Budgeted: bench.VIPlacement{Policy: "budget", Points: 3, StreamBytes: 900, VirSaveBytes: 100, Bound: 390, MeasuredWorst: 380, Preemptions: 4},
		}}}, &bench.Table{ID: "VI", Title: "doctored"}, nil
	}
	path := filepath.Join(t.TempDir(), "BENCH_vi.json")
	var out bytes.Buffer
	err := runSuite(vi, path, path, false, &out)
	if err == nil || !strings.Contains(err.Error(), "FE/every: measured worst response 101 cycles exceeds the proven bound 100") {
		t.Fatalf("want the contract violation, got %v", err)
	}
	if !strings.Contains(out.String(), "== VI: doctored ==") {
		t.Errorf("the violating run's table was not shown:\n%s", out.String())
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatalf("a violating snapshot reached disk (stat err %v)", statErr)
	}
}
