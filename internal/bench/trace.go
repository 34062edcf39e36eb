package bench

import (
	"fmt"
	"time"

	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/sched"
	"inca/internal/trace"

	"inca/internal/accel"
)

// TraceRun executes the seeded two-task preemption workload (the E6 DSLAM
// mix: FE @20 fps with a frame deadline at top priority, continuous PR
// below it, VI policy) with a cycle-accurate tracer attached, and returns
// the tracer plus a metrics table of where each task's cycles went. The
// run is deterministic, so flushing the tracer (inca-bench -trace) yields
// byte-identical Perfetto JSON for a given scale and capacity.
func TraceRun(scale Scale, capacity int) (*trace.Tracer, *Table, error) {
	cfg := accel.Big()
	h, w := scale.inputSize()
	horizon := 1 * time.Second
	if scale == Full {
		horizon = 4 * time.Second
	}

	fe, err := compileNet(cfg, model.NewSuperPoint(h*3/4, w*3/4), compiler.VINone{}, 9)
	if err != nil {
		return nil, nil, err
	}
	gem, err := model.NewGeM(3, h, w)
	if err != nil {
		return nil, nil, err
	}
	pr, err := compileNet(cfg, gem, compiler.VIEvery{}, 9)
	if err != nil {
		return nil, nil, err
	}

	framePeriod := 50 * time.Millisecond
	specs := []sched.TaskSpec{
		{Name: "FE", Slot: 0, Prog: fe, Period: framePeriod, Deadline: framePeriod, DropIfBusy: true},
		{Name: "PR", Slot: 1, Prog: pr, Continuous: true},
	}

	tr := trace.New(capacity)
	res, err := sched.Run(cfg, iau.PolicyVI, specs, horizon, sched.WithTracer(tr))
	if err != nil {
		return nil, nil, fmt.Errorf("trace run: %w", err)
	}

	m := tr.Metrics()
	t := &Table{
		ID:    "TRACE",
		Title: fmt.Sprintf("per-phase cycle breakdown — FE @20fps + continuous PR, VI policy, %v horizon", horizon),
		Columns: []string{"task", "calc", "xfer", "fetch", "backup", "restore", "wait",
			"done", "preempts", "p50 lat", "p95 lat"},
	}
	for _, spec := range specs {
		tm := m.Task(spec.Slot)
		if tm == nil {
			continue
		}
		t.AddRow(tm.Label,
			fmt.Sprintf("%d", tm.CalcCycles),
			fmt.Sprintf("%d", tm.XferCycles),
			fmt.Sprintf("%d", tm.FetchCycles),
			fmt.Sprintf("%d", tm.BackupCycles),
			fmt.Sprintf("%d", tm.RestoreCycles),
			fmt.Sprintf("%d", tm.WaitCycles),
			fmt.Sprintf("%d", tm.Completed),
			fmt.Sprintf("%d", tm.Preemptions),
			fmt.Sprintf("%d", tm.Latency.Quantile(0.50)),
			fmt.Sprintf("%d", tm.Latency.Quantile(0.95)))
	}
	t.AddNote("%d events recorded (%d dropped from the timeline ring; aggregates exact), %d DMA cycles hidden under compute",
		m.TotalEvents, m.DroppedEvents, m.HiddenCycles)
	t.AddNote("accelerator busy %d cycles, degradation %.3f%%", res.BusyCycles, 100*res.Degradation())
	return tr, t, nil
}
