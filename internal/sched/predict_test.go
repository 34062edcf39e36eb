package sched_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"inca/internal/accel"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/sched"
	"inca/internal/trace"
)

// TestPredictiveColdFallbackToStatic pins the fallback semantics: with any
// cold estimate involved, the decision table degenerates to the paper's
// static rule — preempt exactly when a strictly higher-priority slot is
// ready, with the base policy's interrupt method.
func TestPredictiveColdFallbackToStatic(t *testing.T) {
	cfg := accel.Small()
	u := iau.New(cfg, iau.PolicyVI)
	p := sched.NewPredictive(cfg)
	// Nothing bound: every slot is cold.

	if cand, pre, m := p.Contend(u, 1, []int{0}); !pre || cand != 0 || m != iau.PolicyVI {
		t.Fatalf("cold Contend(running=1, ready=[0]) = (%d,%v,%v), want static preempt by slot 0 via VI", cand, pre, m)
	}
	if _, pre, _ := p.Contend(u, 0, []int{1}); pre {
		t.Fatal("cold Contend(running=0, ready=[1]) preempted: static rule never preempts for lower priority")
	}
	if _, pre, _ := p.Contend(u, 1, []int{2, 3}); pre {
		t.Fatal("cold Contend(running=1, ready=[2,3]) preempted: no higher-priority work is ready")
	}
	if pick := p.PickReady(u, []int{1, 2, 3}); pick != 1 {
		t.Fatalf("cold PickReady = %d, want static highest-priority 1", pick)
	}

	// The fallback method follows the IAU's base policy when permitted.
	uc := iau.New(cfg, iau.PolicyCPULike)
	if _, _, m := p.Contend(uc, 2, []int{0}); m != iau.PolicyCPULike {
		t.Fatalf("cold fallback method = %v, want the base policy cpu-like", m)
	}
	// ... and the first permitted method when the base policy is not.
	pv := sched.NewPredictive(cfg, sched.WithMethods(iau.PolicyVI))
	if _, _, m := pv.Contend(uc, 2, []int{0}); m != iau.PolicyVI {
		t.Fatalf("restricted cold fallback method = %v, want VI", m)
	}
}

// TestPredictiveRefinementConverges trains a cold estimator on a repeating
// workload and checks the EWMA converges onto the measured per-request
// intrinsic cycles.
func TestPredictiveRefinementConverges(t *testing.T) {
	cfg := accel.Small()
	prog := compileNet(t, cfg, model.NewSuperPoint(60, 80), true)
	specs := []sched.TaskSpec{{Name: "bg", Slot: 1, Prog: prog, Continuous: true}}

	pol := sched.NewPredictive(cfg)
	res, err := sched.Run(cfg, iau.PolicyVI, specs, 200*time.Millisecond,
		sched.WithPredictive(pol), sched.WithPredictiveCold())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Tasks["bg"]
	if st.Completed < 4 {
		t.Fatalf("only %d completions; the estimator needs a few samples", st.Completed)
	}
	est, warm := pol.Estimate(1)
	if !warm {
		t.Fatal("estimator still cold after completions")
	}
	// With one task running uninterrupted, every request costs the same, so
	// the converged estimate must land on the per-request intrinsic cycles.
	perReq := (st.ExecCycles - st.InterruptCost + st.FetchCycles) / uint64(st.Completed)
	diff := int64(est) - int64(perReq)
	if diff < 0 {
		diff = -diff
	}
	if perReq == 0 || float64(diff)/float64(perReq) > 0.02 {
		t.Fatalf("estimate %d did not converge on measured %d (diff %d)", est, perReq, diff)
	}
	if _, ests := pol.Counters(); ests == 0 {
		t.Fatal("no estimator updates recorded")
	}

	// A warm (stats-seeded) estimator must also migrate toward the measured
	// value rather than staying glued to its seed.
	seed := sched.SeedEstimate(cfg, prog)
	pol2 := sched.NewPredictive(cfg)
	if _, err := sched.Run(cfg, iau.PolicyVI, specs, 200*time.Millisecond,
		sched.WithPredictive(pol2)); err != nil {
		t.Fatal(err)
	}
	est2, _ := pol2.Estimate(1)
	seedErr := absDiff(seed, perReq)
	refErr := absDiff(est2, perReq)
	if refErr > seedErr {
		t.Fatalf("online refinement moved away from truth: seed err %d, refined err %d", seedErr, refErr)
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// predictiveSpecs is a two-task contention workload: a periodic deadline
// task over a continuous background task, scaled so preemptions happen.
func predictiveSpecs(t *testing.T, cfg accel.Config) []sched.TaskSpec {
	fe := compileNet(t, cfg, model.NewSuperPoint(90, 120), false)
	pr := compileNet(t, cfg, mustResNet(t, 18, 3, 90, 120), true)
	return []sched.TaskSpec{
		{Name: "FE", Slot: 0, Prog: fe, Period: 20 * time.Millisecond, Deadline: 20 * time.Millisecond},
		{Name: "PR", Slot: 1, Prog: pr, Continuous: true},
	}
}

// decisionTrace renders the scheduling-relevant event stream (decisions,
// estimates, preemptions, resumes, completions) to bytes.
func decisionTrace(tr *trace.Tracer) []byte {
	var buf bytes.Buffer
	for _, e := range tr.Events() {
		switch e.Kind {
		case trace.KindDecision, trace.KindEstimate, trace.KindPreempt,
			trace.KindResume, trace.KindComplete, trace.KindStart:
			fmt.Fprintf(&buf, "%d %s %d %d %s\n", e.Cycle, e.Kind, e.Slot, e.Arg, e.Label)
		}
	}
	return buf.Bytes()
}

// TestPredictiveDecisionTraceDeterministic runs the same seeded predictive
// workload twice and requires byte-identical decision traces — the
// determinism contract the lint suite patrols statically, checked
// dynamically end to end.
func TestPredictiveDecisionTraceDeterministic(t *testing.T) {
	cfg := accel.Small()
	specs := predictiveSpecs(t, cfg)

	runOnce := func() ([]byte, *sched.Result) {
		tr := trace.New(1 << 14)
		pol := sched.NewPredictive(cfg)
		res, err := sched.Run(cfg, iau.PolicyVI, specs, 300*time.Millisecond,
			sched.WithPredictive(pol), sched.WithTracer(tr))
		if err != nil {
			t.Fatal(err)
		}
		return decisionTrace(tr), res
	}
	a, resA := runOnce()
	b, _ := runOnce()
	if !bytes.Equal(a, b) {
		t.Fatalf("decision traces differ across identical runs:\n--- run1 ---\n%s\n--- run2 ---\n%s", a, b)
	}
	if len(resA.Preemptions) == 0 {
		t.Fatal("workload produced no preemptions; the determinism check is vacuous")
	}
	for _, pr := range resA.Preemptions {
		switch pr.Method {
		case iau.PolicyVI, iau.PolicyLayerByLayer, iau.PolicyCPULike:
		default:
			t.Fatalf("preemption recorded invalid method %v", pr.Method)
		}
	}
	fe := resA.Tasks["FE"]
	if fe.DeadlineMisses != 0 {
		t.Errorf("predictive scheduling missed %d FE deadlines on the reference workload", fe.DeadlineMisses)
	}
	if sla := fe.SLAAttainment(); sla != 1 {
		t.Errorf("FE SLA attainment %.3f, want 1.0", sla)
	}
	if j := resA.JainFairness(); j <= 0 || j > 1 {
		t.Errorf("Jain fairness %.3f out of (0,1]", j)
	}
}

// TestPredictiveTracerInvisible requires identical scheduling with and
// without a tracer attached: observation must not perturb decisions.
func TestPredictiveTracerInvisible(t *testing.T) {
	cfg := accel.Small()
	specs := predictiveSpecs(t, cfg)

	run := func(withTracer bool) *sched.Result {
		opts := []sched.Option{sched.WithPredictive(sched.NewPredictive(cfg))}
		if withTracer {
			opts = append(opts, sched.WithTracer(trace.New(1<<14)))
		}
		res, err := sched.Run(cfg, iau.PolicyVI, specs, 200*time.Millisecond, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := run(true)
	without := run(false)
	if with.BusyCycles != without.BusyCycles || with.IdleCycles != without.IdleCycles {
		t.Fatalf("tracer perturbed the run: busy %d vs %d, idle %d vs %d",
			with.BusyCycles, without.BusyCycles, with.IdleCycles, without.IdleCycles)
	}
	if len(with.Preemptions) != len(without.Preemptions) {
		t.Fatalf("tracer changed preemption count: %d vs %d", len(with.Preemptions), len(without.Preemptions))
	}
	for name, st := range without.Tasks {
		if with.Tasks[name].Completed != st.Completed {
			t.Fatalf("task %s completions differ with tracer: %d vs %d", name, with.Tasks[name].Completed, st.Completed)
		}
	}
}

// TestPredictiveEstimateMarks checks the trace plumbing: estimator updates
// land as KindEstimate marks with the error histogram populated, and fired
// preemption decisions land as KindDecision marks.
func TestPredictiveEstimateMarks(t *testing.T) {
	cfg := accel.Small()
	specs := predictiveSpecs(t, cfg)
	tr := trace.New(1 << 14)
	pol := sched.NewPredictive(cfg)
	res, err := sched.Run(cfg, iau.PolicyVI, specs, 300*time.Millisecond,
		sched.WithPredictive(pol), sched.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	m := tr.Metrics()
	var estimates, decisions uint64
	for _, tm := range m.Tasks {
		estimates += tm.Estimates
		decisions += tm.Decisions
	}
	if estimates == 0 {
		t.Fatal("no KindEstimate marks aggregated")
	}
	dec, est := pol.Counters()
	if estimates != est {
		t.Fatalf("aggregated estimate marks %d != policy counter %d", estimates, est)
	}
	if decisions != dec {
		t.Fatalf("aggregated decision marks %d != policy counter %d", decisions, dec)
	}
	if len(res.Preemptions) > 0 && dec == 0 {
		t.Fatal("preemptions fired but no decisions recorded")
	}
	// The per-slot estimate-error histogram must have observed every update.
	var histN uint64
	for _, tm := range m.Tasks {
		histN += tm.EstimateErr.N
	}
	if histN != estimates {
		t.Fatalf("estimate-error histogram observed %d, want %d", histN, estimates)
	}
}

// TestPredictiveContendAllocatesNothing pins the contended path. On a warm
// two-task predictive run parked mid-flight — slot 0 running, slot 1 ready, so
// the IAU consults Contend at every instruction boundary — neither the
// decision itself nor the IAU's walk to it (readySlots, contend) touches the
// heap.
func TestPredictiveContendAllocatesNothing(t *testing.T) {
	cfg := accel.Small()
	front := compileNet(t, cfg, mustResNet(t, 18, 3, 60, 80), true)
	back := compileNet(t, cfg, model.NewSuperPoint(60, 80), true)
	pol := sched.NewPredictive(cfg)
	pol.Bind(0, front, 0, false)
	pol.Bind(1, back, 0, false)
	u := iau.New(cfg, iau.PolicyVI)
	u.Sched = pol
	for slot, p := range []*isa.Program{front, back} {
		if err := u.Submit(slot, &iau.Request{Prog: p}); err != nil {
			t.Fatal(err)
		}
	}
	contended := func() bool {
		return u.Registers(0).State == iau.Running && u.Registers(1).State == iau.Ready
	}
	horizon := uint64(20000)
	if err := u.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if !contended() {
		t.Fatalf("want slot 0 running over a ready slot 1, have %v / %v", u.Registers(0).State, u.Registers(1).State)
	}

	ready := []int{1}
	if n := testing.AllocsPerRun(100, func() { pol.Contend(u, 0, ready) }); n != 0 {
		t.Errorf("Contend allocates %v times per call, want 0", n)
	}
	pc := u.SlotPC(0)
	if n := testing.AllocsPerRun(100, func() {
		horizon += 500
		if err := u.Run(horizon); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a contended stretch of IAU.Run allocates %v times per 500 cycles, want 0", n)
	}
	if !contended() || u.SlotPC(0) <= pc {
		t.Fatalf("the measured stretch was not contended progress (slot 0 pc %d -> %d, states %v / %v)",
			pc, u.SlotPC(0), u.Registers(0).State, u.Registers(1).State)
	}
}
