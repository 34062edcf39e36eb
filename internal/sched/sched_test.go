package sched_test

import (
	"errors"
	"testing"
	"time"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/sched"
)

func compileNet(t *testing.T, cfg accel.Config, g *model.Network, vi bool) *isa.Program {
	t.Helper()
	q, err := quant.Synthesize(g, 21)
	if err != nil {
		t.Fatal(err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIIf(vi)
	p, err := compiler.Compile(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// dslamSpecs builds a reduced-scale FE(periodic, hard deadline) + PR
// (continuous, interruptible) task set.
func dslamSpecs(t *testing.T, cfg accel.Config) []sched.TaskSpec {
	fe := compileNet(t, cfg, model.NewSuperPoint(120, 160), false)
	pr := compileNet(t, cfg, mustResNet(t, 34, 3, 120, 160), true)
	return []sched.TaskSpec{
		{
			Name: "FE", Slot: 0, Prog: fe,
			Period: 50 * time.Millisecond, Deadline: 50 * time.Millisecond,
		},
		{
			Name: "PR", Slot: 1, Prog: pr,
			Continuous: true,
		},
	}
}

func mustResNet(t *testing.T, depth, c, h, w int) *model.Network {
	t.Helper()
	g, err := model.NewResNet(depth, c, h, w)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDSLAMScheduling reproduces the shape of the paper's system result: FE
// never misses its camera deadline, PR makes continuous progress between
// frames, and the interrupt-support overhead is far below 1%.
func TestDSLAMScheduling(t *testing.T) {
	cfg := accel.Big()
	res, err := sched.Run(cfg, iau.PolicyVI, dslamSpecs(t, cfg), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fe := res.Tasks["FE"]
	pr := res.Tasks["PR"]
	if fe.Completed < 30 {
		t.Fatalf("FE completed only %d frames in 2s (want ~40)", fe.Completed)
	}
	if fe.DeadlineMisses != 0 {
		t.Errorf("FE missed %d deadlines under VI scheduling", fe.DeadlineMisses)
	}
	if pr.Completed == 0 {
		t.Error("PR starved entirely")
	}
	if pr.Preempted == 0 {
		t.Error("PR was never preempted although FE frames kept arriving")
	}
	if d := res.Degradation(); d > 0.003 {
		t.Errorf("interrupt-support degradation %.4f%% exceeds the paper's 0.3%% bound", d*100)
	}
	if len(res.Preemptions) == 0 {
		t.Error("no preemption records")
	}
}

// TestPriorityInversion: without interrupt support (PolicyNone), FE must
// wait for whole PR inferences and misses deadlines that VI avoids.
func TestPriorityInversion(t *testing.T) {
	cfg := accel.Big()
	specs := dslamSpecs(t, cfg)
	// Set the FE deadline between "FE alone" and "FE plus half a PR
	// inference": blocking behind PR is then fatal roughly half the time,
	// while a VI-grade response (tens of microseconds) is harmless.
	feSolo := accel.SoloReplay(cfg, specs[0].Prog, nil)
	prSolo := accel.SoloReplay(cfg, specs[1].Prog, nil)
	deadline := time.Duration(cfg.CyclesToSeconds(feSolo+prSolo/2) * float64(time.Second))
	for i := range specs {
		if specs[i].Name == "FE" {
			specs[i].Deadline = deadline
		}
	}
	native, err := sched.Run(cfg, iau.PolicyNone, specs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	vi, err := sched.Run(cfg, iau.PolicyVI, specs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if native.Tasks["FE"].DeadlineMisses == 0 {
		t.Errorf("native accelerator shows no FE deadline misses; PR inference should block FE")
	}
	if vi.Tasks["FE"].DeadlineMisses != 0 {
		t.Errorf("VI scheduling still misses %d FE deadlines", vi.Tasks["FE"].DeadlineMisses)
	}
	if vi.Tasks["FE"].MeanLatency() >= native.Tasks["FE"].MeanLatency() {
		t.Errorf("VI mean FE latency %.0f should beat native %.0f",
			vi.Tasks["FE"].MeanLatency(), native.Tasks["FE"].MeanLatency())
	}
}

// TestDropIfBusy: an overloaded periodic task sheds frames instead of
// queueing unboundedly.
func TestDropIfBusy(t *testing.T) {
	cfg := accel.Big()
	heavy := compileNet(t, cfg, mustResNet(t, 34, 3, 120, 160), true)
	specs := []sched.TaskSpec{{
		Name: "cam", Slot: 1, Prog: heavy,
		Period: time.Millisecond, DropIfBusy: true,
	}}
	res, err := sched.Run(cfg, iau.PolicyVI, specs, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Tasks["cam"]
	if st.Dropped == 0 {
		t.Errorf("overloaded camera dropped no frames (completed %d, submitted %d)", st.Completed, st.Submitted)
	}
	if st.Completed == 0 {
		t.Error("no frames completed at all")
	}
}

// TestMaxResponseFeasibility: Run rejects a task set up front when a task's
// declared preemption-response tolerance is below the proven response bound
// of some lower-priority program — here a loosely-budgeted (aggressively
// pruned) stream — and accepts it once that stream is recompiled under a
// budget no larger than the tolerance.
func TestMaxResponseFeasibility(t *testing.T) {
	cfg := accel.Small()
	fe := compileNet(t, cfg, model.NewTinyCNN(2, 12, 12), false)
	every := compileNet(t, cfg, model.NewSuperPoint(60, 80), true)
	if every.ResponseBound == 0 {
		t.Fatal("VIEvery stream carries no response bound")
	}

	compileBudget := func(budget uint64) *isa.Program {
		t.Helper()
		q, err := quant.Synthesize(model.NewSuperPoint(60, 80), 21)
		if err != nil {
			t.Fatal(err)
		}
		opt := cfg.CompilerOptions()
		opt.VI = compiler.VIBudget{MaxResponseCycles: budget}
		p, err := compiler.Compile(q, opt)
		if err != nil {
			t.Fatalf("VIBudget{%d}: %v", budget, err)
		}
		return p
	}

	// PR pruned against a loose 4x budget: its proven bound exceeds FE's
	// 2x tolerance, so the set is rejected before anything runs.
	tol := 2 * every.ResponseBound
	loose := compileBudget(4 * every.ResponseBound)
	if loose.ResponseBound <= tol {
		t.Fatalf("loose stream's bound %d not above the %d-cycle tolerance — test premise broken", loose.ResponseBound, tol)
	}
	maxResp := time.Duration(cfg.CyclesToMicros(tol) * float64(time.Microsecond))
	specs := []sched.TaskSpec{
		{Name: "FE", Slot: 0, Prog: fe, Period: 2 * time.Millisecond, MaxResponse: maxResp},
		{Name: "PR", Slot: 1, Prog: loose, Continuous: true},
	}
	_, err := sched.Run(cfg, iau.PolicyVI, specs, 10*time.Millisecond)
	if err == nil {
		t.Fatalf("Run accepted MaxResponse %v below PR's proven bound of %d cycles", maxResp, loose.ResponseBound)
	}
	var se *sched.SpecError
	if !errors.As(err, &se) || se.Field != "MaxResponse" {
		t.Fatalf("want a MaxResponse SpecError, got %v", err)
	}

	// Same tolerance, PR recompiled against it: accepted and runs.
	specs[1].Prog = compileBudget(cfg.SecondsToCycles(maxResp.Seconds()))
	res, err := sched.Run(cfg, iau.PolicyVI, specs, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("Run rejected a feasible set: %v", err)
	}
	if res.Tasks["FE"].Completed == 0 {
		t.Fatal("FE never completed")
	}
}
