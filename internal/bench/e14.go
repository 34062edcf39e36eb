package bench

import (
	"fmt"
	"time"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/fault"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/sched"
)

// E14FaultRecovery runs the DSLAM task mix (FE hard-deadline at slot 0,
// PR continuous at slot 1) under escalating injected fault loads and
// reports what the recovery stack does about them: corrupt snapshot
// restores are detected by the CRC and re-executed, hung instructions are
// killed by the watchdog and resubmitted with backoff, and under a
// sustained overload PR sheds iterations while FE keeps every deadline.
func E14FaultRecovery(scale Scale) (*Table, error) {
	cfg := accel.Big()
	h, w := scale.inputSize()
	fe, err := compileNet(cfg, model.NewSuperPoint(h*3/4, w*3/4), compiler.VINone{}, 1)
	if err != nil {
		return nil, err
	}
	gem, err := model.NewGeM(3, h, w)
	if err != nil {
		return nil, err
	}
	pr, err := compileNet(cfg, gem, compiler.VIEvery{}, 2)
	if err != nil {
		return nil, err
	}

	horizon := 2 * time.Second
	if scale == Full {
		horizon = 5 * time.Second
	}
	specs := []sched.TaskSpec{
		{Name: "FE", Slot: 0, Prog: fe, Period: 50 * time.Millisecond,
			Deadline: 50 * time.Millisecond, DropIfBusy: true},
		{Name: "PR", Slot: 1, Prog: pr, Continuous: true,
			MaxRetries: 3, RetryBackoff: 20 * time.Microsecond},
	}

	loads := []struct {
		label                     string
		corrupt, stall, hang, irq float64
	}{
		{"off", 0, 0, 0, 0},
		{"corrupt 100%", 1.0, 0, 0, 0},
		{"+stall 2%", 1.0, 0.02, 0, 0},
		{"full mix", 1.0, 0.02, 1e-5, 0.01},
	}

	t := &Table{
		ID:    "E14",
		Title: fmt.Sprintf("extension — fault injection and recovery on the DSLAM mix (%v)", horizon),
		Columns: []string{"fault load", "FE miss", "PR done", "corrupt detected",
			"wdog kills", "retried", "shed", "IRQs lost"},
	}
	for _, ld := range loads {
		inj := fault.New(7)
		inj.SetRate(fault.SiteBackup, ld.corrupt)
		inj.SetRate(fault.SiteStall, ld.stall)
		inj.SetRate(fault.SiteHang, ld.hang)
		inj.SetRate(fault.SiteIRQLost, ld.irq)
		r, err := sched.Run(cfg, iau.PolicyVI, specs, horizon, sched.WithFaults(inj))
		if err != nil {
			return nil, fmt.Errorf("E14 %s: %w", ld.label, err)
		}
		t.AddRow(ld.label,
			fmt.Sprintf("%d", r.Tasks["FE"].DeadlineMisses),
			fmt.Sprintf("%d", r.Tasks["PR"].Completed),
			fmt.Sprintf("%d", r.Faults.CorruptedRestores),
			fmt.Sprintf("%d", r.Faults.WatchdogKills),
			fmt.Sprintf("%d", r.Faults.Retries),
			fmt.Sprintf("%d", r.Faults.Shed),
			fmt.Sprintf("%d", r.Faults.LostIRQs),
		)
	}
	t.AddNote("every corrupt restore is CRC-detected and the victim re-executed from scratch; outputs stay bit-exact (internal/iau fault tests)")
	t.AddNote("FE at slot 0 is never preempted and keeps a 0 deadline-miss rate under every load; PR absorbs retries and sheds when the budget is exhausted")
	return t, nil
}
