package iau_test

import (
	"reflect"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/trace"
)

func timingProg(t testing.TB, g *model.Network, cfg accel.Config, vi bool) *isa.Program {
	t.Helper()
	q, err := quant.Synthesize(g, 1)
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

// TestPolicyString pins the mechanism names the E-tables and CLIs print.
func TestPolicyString(t *testing.T) {
	for p, want := range map[iau.Policy]string{
		iau.PolicyNone: "none", iau.PolicyCPULike: "cpu-like",
		iau.PolicyLayerByLayer: "layer-by-layer", iau.PolicyVI: "virtual-instruction",
		iau.Policy(9): "Policy(9)",
	} {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	cfg := accel.Big()
	u := iau.New(cfg, iau.PolicyVI)
	p := timingProg(t, model.NewTinyCNN(3, 16, 16), cfg, true)
	if err := u.Submit(-1, &iau.Request{Prog: p}); err == nil {
		t.Error("negative slot accepted")
	}
	if err := u.Submit(iau.NumSlots, &iau.Request{Prog: p}); err == nil {
		t.Error("slot beyond range accepted")
	}
	if err := u.Submit(0, nil); err == nil {
		t.Error("nil request accepted")
	}
	if err := u.Submit(0, &iau.Request{}); err == nil {
		t.Error("request without program accepted")
	}
	// Run forward, then try to submit in the past.
	if err := u.Submit(0, &iau.Request{Prog: p}); err != nil {
		t.Fatal(err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if u.Now == 0 {
		t.Fatal("clock did not advance")
	}
	if err := u.SubmitAt(0, &iau.Request{Prog: p}, u.Now-1); err == nil {
		t.Error("submission in the past accepted")
	}
}

func TestFIFOWithinSlot(t *testing.T) {
	cfg := accel.Big()
	u := iau.New(cfg, iau.PolicyVI)
	p := timingProg(t, model.NewTinyCNN(3, 16, 16), cfg, true)
	var reqs []*iau.Request
	for i := 0; i < 5; i++ {
		r := &iau.Request{Label: string(rune('a' + i)), Prog: p}
		reqs = append(reqs, r)
		if err := u.SubmitAt(1, r, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(u.Completions) != 5 {
		t.Fatalf("%d completions", len(u.Completions))
	}
	for i, c := range u.Completions {
		if c.Req != reqs[i] {
			t.Fatalf("completion %d is %q, want %q", i, c.Req.Label, reqs[i].Label)
		}
	}
}

func TestHorizonStopAndResume(t *testing.T) {
	cfg := accel.Big()
	u := iau.New(cfg, iau.PolicyVI)
	p := timingProg(t, model.NewVGG16(3, 60, 80), cfg, true)
	if err := u.Submit(1, &iau.Request{Label: "x", Prog: p}); err != nil {
		t.Fatal(err)
	}
	// Stop mid-run.
	if err := u.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(u.Completions) != 0 {
		t.Fatal("completed within 1000 cycles?")
	}
	if !u.Pending() {
		t.Fatal("pending work lost at horizon")
	}
	// Resume to completion.
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(u.Completions) != 1 {
		t.Fatalf("%d completions after resume", len(u.Completions))
	}
}

// TestNestedPreemption: slot2 preempted by slot1, which is preempted by
// slot0; both resume in priority order.
func TestNestedPreemption(t *testing.T) {
	cfg := accel.Big()
	u := iau.New(cfg, iau.PolicyVI)
	tr := trace.New(0)
	u.AttachTracer(tr)
	big := timingProg(t, model.NewVGG16(3, 120, 160), cfg, true)
	mid := timingProg(t, model.NewVGG16(3, 60, 80), cfg, true)
	small := timingProg(t, model.NewTinyCNN(3, 16, 16), cfg, true)

	if err := u.Submit(2, &iau.Request{Label: "big", Prog: big}); err != nil {
		t.Fatal(err)
	}
	if err := u.SubmitAt(1, &iau.Request{Label: "mid", Prog: mid}, 100000); err != nil {
		t.Fatal(err)
	}
	if err := u.SubmitAt(0, &iau.Request{Label: "small", Prog: small}, 200000); err != nil {
		t.Fatal(err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(u.Preemptions) != 2 {
		t.Fatalf("%d preemptions, want 2", len(u.Preemptions))
	}
	if u.Preemptions[0].Victim != 2 || u.Preemptions[0].Preemptor != 1 {
		t.Errorf("first preemption %d<-%d, want 2<-1", u.Preemptions[0].Victim, u.Preemptions[0].Preemptor)
	}
	if u.Preemptions[1].Victim != 1 || u.Preemptions[1].Preemptor != 0 {
		t.Errorf("second preemption %d<-%d, want 1<-0", u.Preemptions[1].Victim, u.Preemptions[1].Preemptor)
	}
	// Completion order must follow priority: small, mid, big.
	want := []string{"small", "mid", "big"}
	for i, c := range u.Completions {
		if c.Req.Label != want[i] {
			t.Fatalf("completion %d = %q, want %q", i, c.Req.Label, want[i])
		}
	}
	// The tracer's lifecycle marks must interleave starts/preempts/resumes
	// consistently.
	var kinds []trace.Kind
	for _, e := range tr.Events() {
		switch e.Kind {
		case trace.KindStart, trace.KindPreempt, trace.KindResume, trace.KindComplete:
			kinds = append(kinds, e.Kind)
		}
	}
	wantKinds := []trace.Kind{
		trace.KindStart,    // big
		trace.KindPreempt,  // big by mid
		trace.KindStart,    // mid
		trace.KindPreempt,  // mid by small
		trace.KindStart,    // small
		trace.KindComplete, // small
		trace.KindResume,   // mid
		trace.KindComplete, // mid
		trace.KindResume,   // big
		trace.KindComplete, // big
	}
	if !reflect.DeepEqual(kinds, wantKinds) {
		t.Fatalf("lifecycle marks %v, want %v", kinds, wantKinds)
	}
}

// TestSlotZeroNeverPreempted: a running slot-0 task is never interrupted,
// whatever arrives.
func TestSlotZeroNeverPreempted(t *testing.T) {
	cfg := accel.Big()
	u := iau.New(cfg, iau.PolicyVI)
	top := timingProg(t, model.NewVGG16(3, 60, 80), cfg, true)
	if err := u.Submit(0, &iau.Request{Label: "top", Prog: top}); err != nil {
		t.Fatal(err)
	}
	other := timingProg(t, model.NewTinyCNN(3, 16, 16), cfg, true)
	if err := u.SubmitAt(1, &iau.Request{Label: "later", Prog: other}, 100); err != nil {
		t.Fatal(err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(u.Preemptions) != 0 {
		t.Fatalf("slot 0 suffered %d preemptions", len(u.Preemptions))
	}
	if u.Completions[0].Req.Label != "top" {
		t.Fatalf("slot 0 did not finish first")
	}
}

// TestCPULikeRepeatedPreemption: snapshots restore correctly across several
// preempt/resume cycles of the same request.
func TestCPULikeRepeatedPreemption(t *testing.T) {
	cfg := accel.Big()
	u := iau.New(cfg, iau.PolicyCPULike)
	victim := timingProg(t, model.NewVGG16(3, 60, 80), cfg, false)
	probe := timingProg(t, model.NewTinyCNN(3, 8, 8), cfg, false)
	if err := u.Submit(1, &iau.Request{Label: "victim", Prog: victim}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := u.SubmitAt(0, &iau.Request{Label: "probe", Prog: probe}, uint64(100000+400000*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(u.Completions) != 6 {
		t.Fatalf("%d completions, want 6", len(u.Completions))
	}
	vict := u.Completions[len(u.Completions)-1].Req
	if vict.Label != "victim" {
		t.Fatalf("victim did not finish last")
	}
	if vict.Preemptions == 0 {
		t.Fatal("victim was never preempted")
	}
	// Every CPU-like preemption costs a full cache spill + refill.
	per := 2 * cfg.XferCycles(uint32(cfg.TotalBufferBytes()))
	want := uint64(vict.Preemptions) * per
	if vict.InterruptCost != want {
		t.Fatalf("interrupt cost %d, want %d (%d preemptions x %d)", vict.InterruptCost, want, vict.Preemptions, per)
	}
}

// TestPolicyNoneRunsToCompletion: without interrupt support a lower-priority
// task blocks higher-priority arrivals until it completes.
func TestPolicyNoneRunsToCompletion(t *testing.T) {
	cfg := accel.Big()
	u := iau.New(cfg, iau.PolicyNone)
	slow := timingProg(t, model.NewVGG16(3, 60, 80), cfg, false)
	fast := timingProg(t, model.NewTinyCNN(3, 8, 8), cfg, false)
	if err := u.Submit(1, &iau.Request{Label: "slow", Prog: slow}); err != nil {
		t.Fatal(err)
	}
	if err := u.SubmitAt(0, &iau.Request{Label: "fast", Prog: fast}, 1000); err != nil {
		t.Fatal(err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(u.Preemptions) != 0 {
		t.Fatal("PolicyNone preempted")
	}
	if u.Completions[0].Req.Label != "slow" {
		t.Fatal("priority inversion did not occur under PolicyNone")
	}
	fastReq := u.Completions[1].Req
	if fastReq.StartCycle < u.Completions[0].Req.DoneCycle {
		t.Fatal("fast task started before slow finished")
	}
}

// TestIdleJumpAccounting: gaps between arrivals are counted as idle cycles.
func TestIdleJumpAccounting(t *testing.T) {
	cfg := accel.Big()
	u := iau.New(cfg, iau.PolicyVI)
	p := timingProg(t, model.NewTinyCNN(3, 8, 8), cfg, true)
	if err := u.SubmitAt(0, &iau.Request{Label: "a", Prog: p}, 0); err != nil {
		t.Fatal(err)
	}
	if err := u.SubmitAt(0, &iau.Request{Label: "b", Prog: p}, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if u.IdleCycles == 0 {
		t.Fatal("no idle cycles recorded across a 10M-cycle gap")
	}
	if u.BusyCycles+u.IdleCycles > u.Now {
		t.Fatalf("busy %d + idle %d exceeds now %d", u.BusyCycles, u.IdleCycles, u.Now)
	}
}
