package iau_test

import (
	"testing"

	"inca/internal/accel"
	"inca/internal/iau"
	"inca/internal/model"
)

// midFlight submits a timing-only request and runs it halfway, returning
// the IAU with the slot still in flight.
func midFlight(t *testing.T, cfg accel.Config, slot int) *iau.IAU {
	t.Helper()
	p, _ := buildFunctional(t, model.NewTinyCNN(3, 24, 32), cfg, true, 11)
	solo := accel.SoloReplay(cfg, p, nil)
	u := iau.New(cfg, iau.PolicyVI)
	if err := u.Submit(slot, &iau.Request{Label: "victim", Prog: p}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := u.Run(solo / 2); err != nil {
		t.Fatalf("run: %v", err)
	}
	if u.SlotRequest(slot) == nil {
		t.Fatalf("slot %d not in flight after half the solo time", slot)
	}
	return u
}

// TestPreemptCostEstimateMethods pins the per-method cost query the
// predictive scheduler builds its decision table from: VI pays wait to the
// next virtual boundary plus that boundary's backup/restore pair,
// layer-by-layer pays only the wait (the next layer reloads through its own
// LOADs), CPU-like pays the full buffer spill both ways immediately, and a
// mechanism with no reachable boundary is infeasible.
func TestPreemptCostEstimateMethods(t *testing.T) {
	cfg := accel.Big()
	u := midFlight(t, cfg, 2)

	vi := u.PreemptCostEstimate(2, iau.PolicyVI)
	if !vi.Feasible {
		t.Fatal("VI infeasible on a VI-compiled program mid-flight")
	}
	if vi.Response() != vi.WaitCycles+vi.BackupCycles {
		t.Errorf("Response %d != wait %d + backup %d", vi.Response(), vi.WaitCycles, vi.BackupCycles)
	}
	if vi.Total() != vi.BackupCycles+vi.RestoreCycles {
		t.Errorf("Total %d != backup %d + restore %d", vi.Total(), vi.BackupCycles, vi.RestoreCycles)
	}

	lbl := u.PreemptCostEstimate(2, iau.PolicyLayerByLayer)
	if !lbl.Feasible {
		t.Fatal("layer-by-layer infeasible mid-flight")
	}
	if lbl.BackupCycles != 0 || lbl.RestoreCycles != 0 || lbl.Total() != 0 {
		t.Errorf("layer switch should be transfer-free, got %+v", lbl)
	}

	cpu := u.PreemptCostEstimate(2, iau.PolicyCPULike)
	if !cpu.Feasible || cpu.WaitCycles != 0 {
		t.Errorf("CPU-like preempts immediately, got %+v", cpu)
	}
	wantBuf := uint64(cfg.TotalBufferBytes())
	if cpu.BackupBytes != wantBuf || cpu.BackupCycles != cpu.RestoreCycles {
		t.Errorf("CPU-like should spill the whole buffer symmetrically, got %+v (buffer %d)", cpu, wantBuf)
	}
	if cpu.BackupCycles != cfg.XferCycles(uint32(wantBuf)) {
		t.Errorf("CPU-like backup %d cycles, want XferCycles(%d)=%d",
			cpu.BackupCycles, wantBuf, cfg.XferCycles(uint32(wantBuf)))
	}

	if mc := u.PreemptCostEstimate(2, iau.PolicyNone); mc.Feasible {
		t.Errorf("PolicyNone has no boundaries but reported feasible: %+v", mc)
	}
	if mc := u.PreemptCostEstimate(0, iau.PolicyVI); mc.Feasible {
		t.Errorf("idle slot reported a feasible preemption: %+v", mc)
	}
	if mc := u.PreemptCostEstimate(-1, iau.PolicyVI); mc.Feasible || mc.Response() != 0 {
		t.Errorf("out-of-range slot reported a cost: %+v", mc)
	}
}

// TestRemainingModelCyclesCountsDown: the IAU-side ground-truth estimator
// must shrink monotonically as the request executes and vanish with it.
func TestRemainingModelCyclesCountsDown(t *testing.T) {
	cfg := accel.Big()
	u := midFlight(t, cfg, 1)

	rem1, ok := u.RemainingModelCycles(1)
	if !ok || rem1 == 0 {
		t.Fatalf("mid-flight remaining = (%d, %v)", rem1, ok)
	}
	if err := u.Run(u.Now + rem1/2); err != nil {
		t.Fatalf("run: %v", err)
	}
	rem2, ok := u.RemainingModelCycles(1)
	if !ok || rem2 >= rem1 {
		t.Fatalf("remaining did not shrink: %d -> (%d, %v)", rem1, rem2, ok)
	}
	if err := u.RunAll(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, ok := u.RemainingModelCycles(1); ok {
		t.Error("completed slot still reports remaining cycles")
	}
	if _, ok := u.RemainingModelCycles(iau.NumSlots); ok {
		t.Error("out-of-range slot reports remaining cycles")
	}
}

// TestSchedulerQuerySurface covers the read-only accessors a scheduler
// decision uses: SlotRequest/SlotPC for the victim's stream position,
// ReadySince for token accrual, SlotFree and PeekPreempted for occupancy.
func TestSchedulerQuerySurface(t *testing.T) {
	cfg := accel.Big()
	u := midFlight(t, cfg, 1)

	req := u.SlotRequest(1)
	if req == nil || req.Label != "victim" {
		t.Fatalf("SlotRequest(1) = %+v", req)
	}
	if pc := u.SlotPC(1); pc <= 0 || pc >= len(req.Prog.Instrs) {
		t.Errorf("SlotPC(1) = %d, want a mid-stream position", pc)
	}
	if u.SlotFree(1) {
		t.Error("in-flight slot reported free")
	}
	if !u.SlotFree(2) {
		t.Error("idle slot reported busy")
	}
	if u.SlotRequest(-1) != nil || u.SlotPC(-1) != -1 {
		t.Error("out-of-range slot leaked request state")
	}
	if since := u.ReadySince(1); since > u.Now {
		t.Errorf("ReadySince(1) = %d in the future of Now=%d", since, u.Now)
	}

	// A higher-priority arrival preempts the victim; the parked request
	// must be visible to PeekPreempted without being consumed.
	p2, _ := buildFunctional(t, model.NewTinyCNN(3, 24, 32), cfg, true, 12)
	if err := u.SubmitAt(0, &iau.Request{Label: "boss", Prog: p2}, u.Now); err != nil {
		t.Fatalf("submit preemptor: %v", err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(u.Preemptions) == 0 {
		t.Fatal("high-priority arrival mid-flight caused no preemption")
	}
	if u.PeekPreempted(1) != nil {
		t.Error("drained run left a parked request behind")
	}
}
