package sched_test

import (
	"bytes"
	"testing"
	"time"

	"inca/internal/accel"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/sched"
	"inca/internal/trace"
)

// TestTraceDeterministicAndConserved runs a seeded two-task preemption
// workload twice with a tracer attached and requires (a) byte-identical
// Perfetto and metrics JSON across runs, (b) a trace the validator accepts,
// and (c) per-task trace cycle sums that reproduce sched.TaskStats exactly:
// calc+xfer+backup+restore = ExecCycles, backup+restore = InterruptCost,
// fetch = FetchCycles.
func TestTraceDeterministicAndConserved(t *testing.T) {
	cfg := accel.Big()
	// One long interruptible inference on slot 1, three short top-priority
	// frames arriving while it runs. Everything completes well before the
	// horizon so the completed-request stats cover all traced work.
	specs := []sched.TaskSpec{
		{Name: "FE", Slot: 0, Prog: compileNet(t, cfg, model.NewTinyCNN(3, 32, 40), false),
			Offset: 2 * time.Millisecond, Period: 10 * time.Millisecond, Count: 3},
		{Name: "PR", Slot: 1, Prog: compileNet(t, cfg, model.NewVGG16(3, 60, 80), true)},
	}
	horizon := 1 * time.Second

	run := func() (*sched.Result, []byte, []byte) {
		tr := trace.New(0)
		res, err := sched.Run(cfg, iau.PolicyVI, specs, horizon, sched.WithTracer(tr))
		if err != nil {
			t.Fatal(err)
		}
		var pf, mj bytes.Buffer
		if err := tr.WritePerfettoNamed(&pf, "inca accelerator"); err != nil {
			t.Fatal(err)
		}
		if err := tr.Metrics().WriteJSON(&mj); err != nil {
			t.Fatal(err)
		}
		return res, pf.Bytes(), mj.Bytes()
	}

	res1, pf1, mj1 := run()
	res2, pf2, mj2 := run()

	if !bytes.Equal(pf1, pf2) {
		t.Error("Perfetto JSON differs between identical seeded runs")
	}
	if !bytes.Equal(mj1, mj2) {
		t.Error("metrics JSON differs between identical seeded runs")
	}
	if err := trace.Validate(bytes.NewReader(pf1)); err != nil {
		t.Fatalf("trace rejected by validator: %v", err)
	}
	if len(res1.Preemptions) == 0 {
		t.Fatal("workload produced no preemptions; trace checks are vacuous")
	}
	if len(res1.Preemptions) != len(res2.Preemptions) {
		t.Fatalf("preemption counts differ: %d vs %d", len(res1.Preemptions), len(res2.Preemptions))
	}

	tr := res1.Tracer
	m := tr.Metrics()
	for _, sp := range specs {
		st := res1.Tasks[sp.Name]
		tm := m.Task(sp.Slot)
		if st == nil || tm == nil {
			t.Fatalf("missing stats for %q (sched=%v trace=%v)", sp.Name, st != nil, tm != nil)
		}
		if st.Completed != st.Submitted {
			t.Fatalf("%s: %d of %d requests completed; shrink the workload", sp.Name, st.Completed, st.Submitted)
		}
		if got := tm.BusyCycles(); got != st.ExecCycles {
			t.Errorf("%s: trace calc+xfer+backup+restore = %d, TaskStats.ExecCycles = %d", sp.Name, got, st.ExecCycles)
		}
		if got := tm.BackupCycles + tm.RestoreCycles; got != st.InterruptCost {
			t.Errorf("%s: trace backup+restore = %d, TaskStats.InterruptCost = %d", sp.Name, got, st.InterruptCost)
		}
		if tm.FetchCycles != st.FetchCycles {
			t.Errorf("%s: trace fetch = %d, TaskStats.FetchCycles = %d", sp.Name, tm.FetchCycles, st.FetchCycles)
		}
		if int(tm.Completed) != st.Completed {
			t.Errorf("%s: trace completions = %d, TaskStats.Completed = %d", sp.Name, tm.Completed, st.Completed)
		}
		if int(tm.Preemptions) != st.Preempted {
			t.Errorf("%s: trace preemptions = %d, TaskStats.Preempted = %d", sp.Name, tm.Preemptions, st.Preempted)
		}
	}
	// The preempted task must have accrued wait time between preempt and
	// resume, and the trace must carry it.
	if pr := m.Task(1); pr.WaitCycles == 0 {
		t.Error("preempted task shows zero preempted-wait cycles")
	}
}

// TestRunWithoutTracerMatchesTraced: attaching a tracer must not perturb the
// simulation — cycle-level results are identical with tracing on and off.
func TestRunWithoutTracerMatchesTraced(t *testing.T) {
	cfg := accel.Big()
	specs := []sched.TaskSpec{
		{Name: "FE", Slot: 0, Prog: compileNet(t, cfg, model.NewTinyCNN(3, 32, 40), false),
			Offset: 2 * time.Millisecond, Period: 10 * time.Millisecond, Count: 2},
		{Name: "PR", Slot: 1, Prog: compileNet(t, cfg, model.NewTinyCNN(3, 48, 64), true), Continuous: true},
	}
	horizon := 100 * time.Millisecond

	plain, err := sched.Run(cfg, iau.PolicyVI, specs, horizon)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := sched.Run(cfg, iau.PolicyVI, specs, horizon, sched.WithTracer(trace.New(0)))
	if err != nil {
		t.Fatal(err)
	}
	if plain.BusyCycles != traced.BusyCycles || plain.IdleCycles != traced.IdleCycles {
		t.Errorf("tracing changed the simulation: busy %d/%d idle %d/%d",
			plain.BusyCycles, traced.BusyCycles, plain.IdleCycles, traced.IdleCycles)
	}
	for name, st := range plain.Tasks {
		ts := traced.Tasks[name]
		if st.Completed != ts.Completed || st.ExecCycles != ts.ExecCycles || st.Preempted != ts.Preempted {
			t.Errorf("%s: stats diverge with tracing: done %d/%d exec %d/%d preempts %d/%d",
				name, st.Completed, ts.Completed, st.ExecCycles, ts.ExecCycles, st.Preempted, ts.Preempted)
		}
	}
}
