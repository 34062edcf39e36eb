package sched_test

import (
	"errors"
	"testing"
	"time"

	"inca/internal/accel"
	"inca/internal/fault"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/sched"
	"inca/internal/trace"
)

// TestSpecValidation: malformed task specs are rejected up front with a
// typed error naming the offending field, instead of wedging the run.
func TestSpecValidation(t *testing.T) {
	cfg := accel.Big()
	p := compileNet(t, cfg, model.NewTinyCNN(3, 16, 16), false)
	cases := []struct {
		field string
		spec  sched.TaskSpec
	}{
		{"Name", sched.TaskSpec{Prog: p}},
		{"Prog", sched.TaskSpec{Name: "t"}},
		{"Slot", sched.TaskSpec{Name: "t", Prog: p, Slot: iau.NumSlots}},
		{"Slot", sched.TaskSpec{Name: "t", Prog: p, Slot: -1}},
		{"Period", sched.TaskSpec{Name: "t", Prog: p, Period: -time.Second}},
		{"Deadline", sched.TaskSpec{Name: "t", Prog: p, Deadline: -time.Second}},
		{"Offset", sched.TaskSpec{Name: "t", Prog: p, Offset: -time.Second}},
		{"Count", sched.TaskSpec{Name: "t", Prog: p, Count: -1}},
		{"MaxRetries", sched.TaskSpec{Name: "t", Prog: p, MaxRetries: -1}},
		{"RetryBackoff", sched.TaskSpec{Name: "t", Prog: p, RetryBackoff: -time.Second}},
	}
	for _, c := range cases {
		_, err := sched.Run(cfg, iau.PolicyVI, []sched.TaskSpec{c.spec}, time.Millisecond)
		var se *sched.SpecError
		if !errors.As(err, &se) {
			t.Errorf("%s: got %v, want *SpecError", c.field, err)
			continue
		}
		if se.Field != c.field {
			t.Errorf("field %q flagged, want %q (%v)", se.Field, c.field, err)
		}
	}
}

// TestRetryAndShed: under injected hangs the runner resubmits killed
// requests within the budget, sheds the rest, and the fault report ties
// out — while the fault-free hard-deadline task is untouched.
func TestRetryAndShed(t *testing.T) {
	cfg := accel.Big()
	pr := compileNet(t, cfg, model.NewVGG16(3, 60, 80), true)
	specs := []sched.TaskSpec{{
		Name: "PR", Slot: 1, Prog: pr, Continuous: true,
		MaxRetries: 2, RetryBackoff: 10 * time.Microsecond,
	}}

	inj := fault.New(11)
	// VGG16 runs ~8k instructions per inference: 2e-5/instruction hangs
	// roughly one attempt in six without starving the retry path.
	inj.SetRate(fault.SiteHang, 2e-5)
	res, err := sched.Run(cfg, iau.PolicyVI, specs, 100*time.Millisecond, sched.WithFaults(inj), sched.WithTracer(trace.New(0)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil {
		t.Fatal("armed run returned no fault report")
	}
	if res.Faults.WatchdogKills == 0 {
		t.Fatal("no watchdog kills at hang rate 1e-3 over 100ms")
	}
	st := res.Tasks["PR"]
	if st.Retried == 0 {
		t.Error("no retries recorded despite watchdog kills")
	}
	if res.Faults.Retries != st.Retried || res.Faults.Shed != st.Shed {
		t.Errorf("report retries/shed %d/%d != task %d/%d",
			res.Faults.Retries, res.Faults.Shed, st.Retried, st.Shed)
	}
	if marks := int(res.Tracer.Metrics().Task(1).Kills); marks != res.Faults.WatchdogKills {
		t.Errorf("%d kill marks for %d kills", marks, res.Faults.WatchdogKills)
	}
	if st.Completed == 0 {
		t.Error("continuous task starved: nothing completed under retry")
	}
}

// TestZeroRateInjectorIsInvisible: arming an injector with all rates at
// zero must produce a byte-identical Result to a run with no injector —
// the disabled hot path really costs nothing behaviorally.
func TestZeroRateInjectorIsInvisible(t *testing.T) {
	cfg := accel.Big()
	specs := dslamSpecs(t, cfg)
	horizon := 200 * time.Millisecond

	ref, err := sched.Run(cfg, iau.PolicyVI, specs, horizon)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sched.Run(cfg, iau.PolicyVI, specs, horizon, sched.WithFaults(fault.New(123)))
	if err != nil {
		t.Fatal(err)
	}

	if ref.BusyCycles != got.BusyCycles || ref.IdleCycles != got.IdleCycles {
		t.Errorf("busy/idle differ: %d/%d vs %d/%d",
			ref.BusyCycles, ref.IdleCycles, got.BusyCycles, got.IdleCycles)
	}
	rc, rx, rh := ref.CycleStats()
	gc, gx, gh := got.CycleStats()
	if rc != gc || rx != gx || rh != gh {
		t.Errorf("cycle stats differ: %d/%d/%d vs %d/%d/%d", rc, rx, rh, gc, gx, gh)
	}
	if len(ref.Preemptions) != len(got.Preemptions) {
		t.Errorf("preemption counts differ: %d vs %d", len(ref.Preemptions), len(got.Preemptions))
	}
	for name, rst := range ref.Tasks {
		gst := got.Tasks[name]
		if rst.Completed != gst.Completed || rst.DeadlineMisses != gst.DeadlineMisses ||
			rst.MeanLatency() != gst.MeanLatency() || rst.MaxLatency() != gst.MaxLatency() {
			t.Errorf("task %s stats differ: %+v vs %+v", name, rst, gst)
		}
	}
	if got.Faults == nil || got.Faults.WatchdogKills != 0 || got.Faults.CorruptedRestores != 0 {
		t.Errorf("zero-rate injector recorded recovery activity: %+v", got.Faults)
	}
	if ref.Faults != nil {
		t.Error("unarmed run carries a fault report")
	}
}

// TestChaosScheduling: the paper's FE+PR task set under the full fault
// mix — FE (slot 0, never preempted, fault-free deadline) keeps every
// deadline while PR absorbs corruption restarts and watchdog kills.
func TestChaosScheduling(t *testing.T) {
	cfg := accel.Big()
	specs := dslamSpecs(t, cfg)
	for i := range specs {
		specs[i].MaxRetries = 3
		specs[i].RetryBackoff = 20 * time.Microsecond
	}

	inj := fault.New(5)
	// FE preempts PR only ~once per frame and few boundaries carry a
	// backup, so corrupt every one of them to make detection certain.
	inj.SetRate(fault.SiteBackup, 1.0)
	inj.SetRate(fault.SiteStall, 0.02)
	inj.SetRate(fault.SiteHang, 1e-5)
	inj.SetRate(fault.SiteIRQLost, 0.01)
	res, err := sched.Run(cfg, iau.PolicyVI, specs, 500*time.Millisecond, sched.WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	fe, pr := res.Tasks["FE"], res.Tasks["PR"]
	if fe.DeadlineMisses != 0 {
		t.Errorf("FE missed %d deadlines under chaos, want 0", fe.DeadlineMisses)
	}
	if fe.Completed == 0 || pr.Completed == 0 {
		t.Fatalf("starved: FE %d, PR %d completions", fe.Completed, pr.Completed)
	}
	if res.Faults.CorruptedRestores == 0 {
		t.Error("backup corruption never detected")
	}
	if pr.Corrupted == 0 || pr.Recovered == 0 {
		t.Errorf("PR corruption accounting empty: %+v", pr)
	}
	if res.Faults.Stalls == 0 {
		t.Error("2% stall rate injected nothing")
	}
	t.Logf("%s", res.Faults)
}
