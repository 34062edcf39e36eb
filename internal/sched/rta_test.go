package sched_test

import (
	"testing"
	"time"

	"inca/internal/accel"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/sched"
)

// TestRTABlockingOrdering: the blocking bound must shrink monotonically from
// native -> layer-by-layer -> VI, for the same program.
func TestRTABlockingOrdering(t *testing.T) {
	cfg := accel.Big()
	g := mustResNet(t, 34, 3, 120, 160)
	p := compileNet(t, cfg, g, true)
	var bounds []uint64
	for _, pol := range []iau.Policy{iau.PolicyNone, iau.PolicyLayerByLayer, iau.PolicyVI} {
		b, err := sched.BlockingBound(cfg, p, pol)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		bounds = append(bounds, b)
	}
	if !(bounds[0] > bounds[1] && bounds[1] > bounds[2]) {
		t.Fatalf("blocking bounds not ordered: none=%d layer=%d vi=%d", bounds[0], bounds[1], bounds[2])
	}
	// VI blocking must be microseconds-scale; native is the whole inference.
	if cfg.CyclesToMicros(bounds[2]) > 200 {
		t.Errorf("VI blocking bound %.1f us too large", cfg.CyclesToMicros(bounds[2]))
	}
}

// TestRTAPredictsDeadlineOutcomes: the analysis must declare the DSLAM set
// feasible under VI and infeasible on the native accelerator when the FE
// deadline sits between the two blocking regimes — and simulation must
// agree on both counts.
func TestRTAPredictsDeadlineOutcomes(t *testing.T) {
	cfg := accel.Big()
	feNet := model.NewSuperPoint(90, 120)
	prNet := mustResNet(t, 34, 3, 120, 160)
	fe := compileNet(t, cfg, feNet, false)
	pr := compileNet(t, cfg, prNet, true)

	mkModels := func(pol iau.Policy, deadline time.Duration) []sched.TaskModel {
		feM, err := sched.NewTaskModel(cfg, "FE", 0, fe, pol, 50*time.Millisecond, deadline)
		if err != nil {
			t.Fatal(err)
		}
		prM, err := sched.NewTaskModel(cfg, "PR", 1, pr, pol, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return []sched.TaskModel{feM, prM}
	}

	// Deadline: FE cost plus a small margin — far below a full PR blocking,
	// above the VI blocking.
	feSolo := mkModels(iau.PolicyVI, 0)[0].Cost
	deadline := time.Duration(cfg.CyclesToSeconds(feSolo+cfg.SecondsToCycles(0.002)) * float64(time.Second))

	viRes, err := sched.Analyze(mkModels(iau.PolicyVI, deadline))
	if err != nil {
		t.Fatal(err)
	}
	noneRes, err := sched.Analyze(mkModels(iau.PolicyNone, deadline))
	if err != nil {
		t.Fatal(err)
	}
	if !viRes[0].Feasible {
		t.Errorf("RTA declares FE infeasible under VI (response %d, deadline %d)", viRes[0].Response, viRes[0].Deadline)
	}
	if noneRes[0].Feasible {
		t.Errorf("RTA declares FE feasible on the native accelerator (response %d, deadline %d)", noneRes[0].Response, noneRes[0].Deadline)
	}

	// Simulation agreement.
	specs := []sched.TaskSpec{
		{Name: "FE", Slot: 0, Prog: fe, Period: 50 * time.Millisecond, Deadline: deadline},
		{Name: "PR", Slot: 1, Prog: pr, Continuous: true},
	}
	vi, err := sched.Run(cfg, iau.PolicyVI, specs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if vi.Tasks["FE"].DeadlineMisses != 0 {
		t.Errorf("simulation misses %d FE deadlines under VI despite feasible RTA", vi.Tasks["FE"].DeadlineMisses)
	}
	none, err := sched.Run(cfg, iau.PolicyNone, specs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if none.Tasks["FE"].DeadlineMisses == 0 {
		t.Errorf("simulation shows no FE misses on the native accelerator despite infeasible RTA")
	}
}

// TestRTAResponseBoundsSimulation: the analytical worst-case response must
// upper-bound every observed response time in simulation.
func TestRTAResponseBoundsSimulation(t *testing.T) {
	cfg := accel.Big()
	feNet := model.NewSuperPoint(90, 120)
	prNet := mustResNet(t, 34, 3, 120, 160)
	fe := compileNet(t, cfg, feNet, false)
	pr := compileNet(t, cfg, prNet, true)
	feM, err := sched.NewTaskModel(cfg, "FE", 0, fe, iau.PolicyVI, 50*time.Millisecond, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	prM, err := sched.NewTaskModel(cfg, "PR", 1, pr, iau.PolicyVI, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Analyze([]sched.TaskModel{feM, prM})
	if err != nil {
		t.Fatal(err)
	}
	bound := res[0].Response

	specs := []sched.TaskSpec{
		{Name: "FE", Slot: 0, Prog: fe, Period: 50 * time.Millisecond},
		{Name: "PR", Slot: 1, Prog: pr, Continuous: true},
	}
	sim, err := sched.Run(cfg, iau.PolicyVI, specs, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if worst := sim.Tasks["FE"].MaxLatency(); worst > bound {
		t.Errorf("observed FE response %d cycles exceeds the RTA bound %d", worst, bound)
	}
}

// TestRTABoundsNativeWorstArrival: on the native accelerator FE's worst case
// is arriving one cycle after a PR inference starts. PR is VI-compiled, so
// the IAU fetches and skips its virtual instructions on the way; the bound
// covers the simulated response only if the analysis prices PR's blocking
// as the runtime occupies the accelerator.
func TestRTABoundsNativeWorstArrival(t *testing.T) {
	cfg := accel.Big()
	gem, err := model.NewGeM(3, 120, 160)
	if err != nil {
		t.Fatal(err)
	}
	fe := compileNet(t, cfg, model.NewSuperPoint(90, 120), false)
	pr := compileNet(t, cfg, gem, true)
	feM, err := sched.NewTaskModel(cfg, "FE", 0, fe, iau.PolicyNone, 50*time.Millisecond, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	prM, err := sched.NewTaskModel(cfg, "PR", 1, pr, iau.PolicyNone, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Analyze([]sched.TaskModel{feM, prM})
	if err != nil {
		t.Fatal(err)
	}

	u := iau.New(cfg, iau.PolicyNone)
	feReq := &iau.Request{Label: "FE", Prog: fe}
	if err := u.Submit(1, &iau.Request{Label: "PR", Prog: pr}); err != nil {
		t.Fatal(err)
	}
	if err := u.SubmitAt(0, feReq, 1); err != nil {
		t.Fatal(err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := feReq.DoneCycle - feReq.SubmitCycle; got > res[0].Response {
		t.Errorf("simulated FE response %d cycles exceeds the native RTA bound %d by %d",
			got, res[0].Response, got-res[0].Response)
	}
}

func TestAnalyzeRejectsDuplicateSlots(t *testing.T) {
	_, err := sched.Analyze([]sched.TaskModel{
		{Name: "a", Slot: 0, Cost: 10},
		{Name: "b", Slot: 0, Cost: 10},
	})
	if err == nil {
		t.Fatal("duplicate slots accepted")
	}
}

// TestAnalyzeOverload covers the two failure shapes: a deadline miss with a
// finite response (hog at 90% utilization), and a diverging busy period
// (hog at 100%).
func TestAnalyzeOverload(t *testing.T) {
	res, err := sched.Analyze([]sched.TaskModel{
		{Name: "hog", Slot: 0, Cost: 90, Period: 100},
		{Name: "low", Slot: 1, Cost: 50, Period: 200, Deadline: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res[1].Converged {
		t.Fatalf("90%%-utilization case should converge: %+v", res[1])
	}
	if res[1].Feasible {
		t.Fatalf("response %d beyond deadline reported feasible", res[1].Response)
	}
	if res[1].Response != 500 {
		t.Fatalf("response %d, classic RTA gives 500", res[1].Response)
	}

	res, err = sched.Analyze([]sched.TaskModel{
		{Name: "hog", Slot: 0, Cost: 100, Period: 100},
		{Name: "low", Slot: 1, Cost: 50, Period: 200, Deadline: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Converged || res[1].Feasible {
		t.Fatalf("saturated task set reported schedulable: %+v", res[1])
	}
}
