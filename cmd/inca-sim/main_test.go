package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"inca/internal/accel"
	"inca/internal/iau"
)

func TestParsePolicy(t *testing.T) {
	cases := map[string]iau.Policy{
		"none": iau.PolicyNone, "vi": iau.PolicyVI, "virtual": iau.PolicyVI,
		"layer": iau.PolicyLayerByLayer, "cpu": iau.PolicyCPULike,
	}
	for in, want := range cases {
		got, err := parsePolicy(in)
		if err != nil || got != want {
			t.Errorf("parsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestParseTask(t *testing.T) {
	cfg := accel.Big()
	spec, err := parseTask("name=FE,slot=0,net=tinycnn,c=3,h=24,w=32,period=50ms,deadline=40ms,drop=true", cfg, iau.PolicyVI, false)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "FE" || spec.Slot != 0 || spec.Period != 50*time.Millisecond ||
		spec.Deadline != 40*time.Millisecond || !spec.DropIfBusy {
		t.Fatalf("parsed %+v", spec)
	}
	if spec.Prog == nil {
		t.Fatal("no program compiled")
	}
	// Slot 0 under VI gets no virtual instructions.
	if n := len(spec.Prog.InterruptPoints()); n != 0 {
		t.Errorf("slot-0 program has %d interrupt points", n)
	}
	spec2, err := parseTask("name=PR,slot=1,net=tinycnn,c=3,h=24,w=32,continuous=true", cfg, iau.PolicyVI, false)
	if err != nil {
		t.Fatal(err)
	}
	if !spec2.Continuous || len(spec2.Prog.InterruptPoints()) == 0 {
		t.Fatalf("continuous interruptible task parsed wrong: %+v", spec2)
	}
	// With -predictive any slot can be a victim, so slot 0 gets virtual
	// interrupt points too.
	spec3, err := parseTask("name=FE,slot=0,net=tinycnn,c=3,h=24,w=32,period=50ms", cfg, iau.PolicyVI, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec3.Prog.InterruptPoints()) == 0 {
		t.Error("predictive slot-0 program has no interrupt points")
	}
}

func TestParseTaskErrors(t *testing.T) {
	cfg := accel.Big()
	cases := []string{
		"slot=0,net=tinycnn",           // missing name
		"name=x,slot=0",                // missing net/prog
		"name=x,slot=zero,net=tinycnn", // bad int
		"name=x,slot=0,net=doesnotexist",
		"name=x,slot=0,net=tinycnn,period=fast",
		"name=x,slot=0,net=tinycnn,nonsense=1",
		"justgarbage",
	}
	for _, c := range cases {
		if _, err := parseTask(c, cfg, iau.PolicyVI, false); err == nil {
			t.Errorf("%q accepted", c)
		}
	}
	if _, err := parseTask("name=x,slot=1,prog=/nonexistent.bin", cfg, iau.PolicyVI, false); err == nil ||
		!strings.Contains(err.Error(), "no such file") {
		t.Errorf("missing prog file: %v", err)
	}
}

// tinyMix is a two-task set small enough to simulate in milliseconds: a
// periodic FE on slot 0 preempting a continuous PR on slot 1.
var tinyMix = []string{
	"-duration", "40ms",
	"-task", "name=FE,slot=0,net=tinycnn,c=3,h=24,w=32,period=10ms",
	"-task", "name=PR,slot=1,net=tinycnn,c=3,h=48,w=64,continuous=true",
}

// TestRunCLI drives the front-end through run(): flag and argument errors
// exit 1 with a message on stderr; -gantt and -timeline render the
// tracer's marks, and -trace writes the Perfetto and metrics files.
func TestRunCLI(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "sim.json")
	tests := []struct {
		name   string
		args   []string
		code   int
		stdout []string // substrings expected on stdout
		stderr string   // substring expected on stderr
		files  []string
	}{
		{name: "bad flag", args: []string{"-nope"}, code: 1, stderr: "flag provided but not defined: -nope"},
		{name: "unknown policy", args: []string{"-policy", "rr"}, code: 1, stderr: `inca-sim: unknown policy "rr"`},
		{name: "bad task", args: []string{"-task", "slot=0,net=tinycnn"}, code: 1, stderr: "inca-sim: parsing -task"},
		{name: "cold without predictive", args: append([]string{"-predictive-cold"}, tinyMix...), code: 1,
			stderr: "inca-sim: -predictive-cold requires -predictive"},
		{name: "gantt", args: append([]string{"-gantt"}, tinyMix...), code: 0,
			stdout: []string{"slot0 |", "| FE\n", "| PR\n"}},
		{name: "timeline", args: append([]string{"-timeline"}, tinyMix...), code: 0,
			stdout: []string{"\ntimeline:\n", " start    slot1 PR#0\n", " preempt  slot1 PR#", " resume   slot1 PR#", " submit   slot0 FE#3\n"}},
		{name: "trace", args: append([]string{"-gantt", "-trace", out}, tinyMix...), code: 0,
			stdout: []string{"wrote Perfetto trace to " + out, "slot1 |"}, files: []string{out, filepath.Join(dir, "sim.metrics.json")}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout.String(), stderr.String())
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, stdout.String())
				}
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr missing %q:\n%s", tc.stderr, stderr.String())
			}
			if tc.code == 0 && stderr.Len() != 0 {
				t.Errorf("clean run wrote to stderr:\n%s", stderr.String())
			}
			for _, f := range tc.files {
				if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
					t.Errorf("%s not written: %v", f, err)
				}
			}
		})
	}
}

// TestRunDeterministic: the report, chart and timeline are a pure function
// of the flags.
func TestRunDeterministic(t *testing.T) {
	args := append([]string{"-gantt", "-timeline", "-v", "-faults", "-predictive"}, tinyMix...)
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
