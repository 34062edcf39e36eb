package sched_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"inca/internal/accel"
	"inca/internal/fault"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/sched"
	"inca/internal/trace"
)

func TestGanttRendering(t *testing.T) {
	cfg := accel.Big()
	specs := []sched.TaskSpec{
		{Name: "FE", Slot: 0, Prog: compileNet(t, cfg, model.NewSuperPoint(90, 120), false),
			Period: 50 * time.Millisecond},
		{Name: "PR", Slot: 1, Prog: compileNet(t, cfg, mustResNet(t, 34, 3, 120, 160), true),
			Continuous: true},
	}
	horizon := 300 * time.Millisecond
	res, err := sched.Run(cfg, iau.PolicyVI, specs, horizon, sched.WithTracer(trace.New(0)))
	if err != nil {
		t.Fatal(err)
	}
	out := sched.Gantt(cfg, res.Tracer.Events(), cfg.SecondsToCycles(horizon.Seconds()), 60)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 3 { // two slot rows + axis
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "slot0 |") || !strings.Contains(lines[0], "FE") {
		t.Errorf("slot0 row malformed: %q", lines[0])
	}
	if !strings.Contains(lines[1], "PR") {
		t.Errorf("slot1 row malformed: %q", lines[1])
	}
	// Both rows must show busy time, and the two rows must not both be busy
	// in every column (they share one accelerator).
	r0 := lines[0][strings.Index(lines[0], "|")+1 : strings.LastIndex(lines[0], "|")]
	r1 := lines[1][strings.Index(lines[1], "|")+1 : strings.LastIndex(lines[1], "|")]
	if !strings.Contains(r0, "#") || !strings.Contains(r1, "#") {
		t.Fatalf("missing busy marks:\n%s", out)
	}
	gaps0 := strings.Count(r0, " ")
	if gaps0 == 0 {
		t.Errorf("FE row shows 100%% occupancy at 20 fps:\n%s", out)
	}
	if sched.Gantt(cfg, nil, 0, 60) != "(no timeline)\n" {
		t.Error("empty timeline not handled")
	}
}

// ganttRow returns the chart row of one slot, between its bars.
func ganttRow(t *testing.T, chart string, slot int) string {
	t.Helper()
	prefix := fmt.Sprintf("slot%d |", slot)
	for _, line := range strings.Split(chart, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line[len(prefix):strings.LastIndex(line, "|")]
		}
	}
	t.Fatalf("no slot%d row:\n%s", slot, chart)
	return ""
}

// TestGanttClosesKills: a watchdog kill ends the slot's bar. A lone request
// whose first instruction hangs never holds the accelerator past the kill.
func TestGanttClosesKills(t *testing.T) {
	cfg := accel.Big()
	specs := []sched.TaskSpec{{Name: "T", Slot: 1, Prog: compileNet(t, cfg, model.NewTinyCNN(3, 16, 16), true)}}
	horizon := 10 * time.Millisecond
	res, err := sched.Run(cfg, iau.PolicyVI, specs, horizon,
		sched.WithFaults(fault.New(1).SetRate(fault.SiteHang, 1)), sched.WithTracer(trace.New(0)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.WatchdogKills != 1 || res.BusyCycles != 0 {
		t.Fatalf("%d kills, %d busy cycles: want one kill before any work", res.Faults.WatchdogKills, res.BusyCycles)
	}
	const cols = 40
	chart := sched.Gantt(cfg, res.Tracer.Events(), cfg.SecondsToCycles(horizon.Seconds()), cols)
	if row := ganttRow(t, chart, 1); strings.TrimRight(row, " ") != "#" {
		t.Errorf("killed slot drawn busy in %d of %d columns, want only the first:\n%s", strings.Count(row, "#"), cols, chart)
	}
}

// TestGanttReopensRestarts: a request re-executing after a detected corrupt
// backup holds the accelerator again. Every CPU-like backup is corrupted, so
// the preempted PR restarts from scratch and the chart must draw it up to
// its completion.
func TestGanttReopensRestarts(t *testing.T) {
	cfg := accel.Big()
	specs := []sched.TaskSpec{
		{Name: "FE", Slot: 0, Prog: compileNet(t, cfg, model.NewTinyCNN(3, 16, 16), false), Offset: 2 * time.Millisecond},
		{Name: "PR", Slot: 1, Prog: compileNet(t, cfg, model.NewVGG16(3, 60, 80), false)},
	}
	horizon := 8 * time.Millisecond
	res, err := sched.Run(cfg, iau.PolicyCPULike, specs, horizon,
		sched.WithFaults(fault.New(1).SetRate(fault.SiteBackup, 1)), sched.WithTracer(trace.New(0)))
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Tasks["PR"]
	if pr.Completed != 1 || pr.Recovered != 1 {
		t.Fatalf("PR completed %d, restarted %d: want one restart, then completion", pr.Completed, pr.Recovered)
	}
	const cols = 60
	horizonCycles := cfg.SecondsToCycles(horizon.Seconds())
	done := pr.MaxLatency() // submitted at cycle 0
	chart := sched.Gantt(cfg, res.Tracer.Events(), horizonCycles, cols)
	last := int(float64(done) / (float64(horizonCycles) / cols))
	if row := ganttRow(t, chart, 1); len(strings.TrimRight(row, " ")) != last+1 {
		t.Errorf("PR's bar ends in column %d, want %d (completion at cycle %d):\n%s", len(strings.TrimRight(row, " "))-1, last, done, chart)
	}
}
