package core_test

import (
	"reflect"
	"testing"
	"time"

	"inca/internal/accel"
	"inca/internal/core"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/ros"
	"inca/internal/tensor"
)

func newRuntime(t *testing.T) *core.Runtime {
	t.Helper()
	rt, err := core.NewRuntime(accel.Big(), iau.PolicyVI)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestDeploySlotRules(t *testing.T) {
	rt := newRuntime(t)
	g := model.NewTinyCNN(3, 16, 16)
	if _, err := rt.Deploy(-1, g, 1); err == nil {
		t.Error("negative slot accepted")
	}
	if _, err := rt.Deploy(iau.NumSlots, g, 1); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := rt.Deploy(1, g, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Deploy(1, g, 2); err == nil {
		t.Error("double-binding a slot accepted")
	}
	if d, err := rt.Deploy(2, g, 2); err != nil || d.Slot != 2 {
		t.Errorf("binding a free slot: %v, %v", d, err)
	}
}

// TestVirtualInstructionPolicy: only interruptible slots (>0) under the VI
// policy receive virtual instructions.
func TestVirtualInstructionPolicy(t *testing.T) {
	rt := newRuntime(t)
	top, err := rt.Deploy(0, model.NewTinyCNN(3, 16, 16), 1)
	if err != nil {
		t.Fatal(err)
	}
	low, err := rt.Deploy(1, model.NewTinyCNN(3, 16, 16), 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(top.Prog.InterruptPoints()); n != 0 {
		t.Errorf("slot-0 program has %d interrupt points, want 0", n)
	}
	if n := len(low.Prog.InterruptPoints()); n == 0 {
		t.Error("slot-1 program has no interrupt points under PolicyVI")
	}
}

func TestInferSyncTiming(t *testing.T) {
	rt := newRuntime(t)
	d, err := rt.Deploy(1, model.NewTinyCNN(3, 32, 40), 1)
	if err != nil {
		t.Fatal(err)
	}
	req, err := d.InferSync(nil)
	if err != nil {
		t.Fatal(err)
	}
	if req.ExecCycles == 0 || req.DoneCycle <= req.SubmitCycle {
		t.Fatalf("timing not filled: exec=%d submit=%d done=%d", req.ExecCycles, req.SubmitCycle, req.DoneCycle)
	}
	if d.Inferences != 1 {
		t.Fatalf("inference count = %d", d.Inferences)
	}
}

// TestDeployFunctionalInferSync: a deployment embeds its weight image, so
// InferSync over a fresh arena computes the network bit-exactly — the same
// output as the quantized reference of the network Deploy synthesized.
func TestDeployFunctionalInferSync(t *testing.T) {
	rt := newRuntime(t)
	g := model.NewTinyCNN(3, 16, 16)
	d, err := rt.Deploy(1, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.NewInt8(g.InC, g.InH, g.InW)
	tensor.FillPattern(in, 11)
	arena, err := accel.NewArena(d.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := accel.WriteInputAt(arena, d.Prog, in, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InferSync(arena); err != nil {
		t.Fatal(err)
	}
	got, err := accel.ReadOutputAt(arena, d.Prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := quant.Synthesize(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.RunFinal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("functional InferSync output differs from the quantized reference")
	}
	// A nil arena still runs timing-only.
	if _, err := d.InferSync(nil); err != nil {
		t.Fatal(err)
	}
}

func TestAttachROSAndInferAsync(t *testing.T) {
	rt := newRuntime(t)
	fast, err := rt.Deploy(0, model.NewTinyCNN(3, 16, 16), 1)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := rt.Deploy(1, model.NewVGG16(3, 60, 80), 2)
	if err != nil {
		t.Fatal(err)
	}
	rc := ros.NewCore()
	rt.AttachROS(rc, 100*time.Microsecond)
	defer rt.DetachROS()

	var fastDone, slowDone []ros.Time
	// Start the slow network, then fire the fast one while it runs.
	if err := slow.InferAsync(core.InferCallbacks{
		OnDone: func(at ros.Time) { slowDone = append(slowDone, at) },
	}); err != nil {
		t.Fatal(err)
	}
	_ = rc.At(2*time.Millisecond, func() {
		if err := fast.InferAsync(core.InferCallbacks{
			OnDone: func(at ros.Time) { fastDone = append(fastDone, at) },
		}); err != nil {
			t.Fatal(err)
		}
	})
	rc.Run(5 * time.Second)

	if len(fastDone) != 1 || len(slowDone) != 1 {
		t.Fatalf("completions: fast=%d slow=%d, want 1 and 1", len(fastDone), len(slowDone))
	}
	if fastDone[0] >= slowDone[0] {
		t.Errorf("high-priority task finished at %v, after the preempted task at %v", fastDone[0], slowDone[0])
	}
	if len(rt.U.Preemptions) == 0 {
		t.Error("fast task did not preempt the slow one")
	}
	// Completion callbacks must arrive within the polling quantum of the
	// true completion time.
	comp := rt.U.Completions
	for _, c := range comp {
		trueAt := ros.Time(accel.Big().CyclesToSeconds(c.Req.DoneCycle) * float64(time.Second))
		var seen ros.Time
		if c.Slot == 0 {
			seen = fastDone[0]
		} else {
			seen = slowDone[0]
		}
		if seen < trueAt {
			t.Errorf("slot %d callback at %v before true completion %v", c.Slot, seen, trueAt)
		}
	}
}

func TestInferAsyncWithoutROS(t *testing.T) {
	rt := newRuntime(t)
	d, err := rt.Deploy(1, model.NewTinyCNN(3, 16, 16), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InferAsync(core.InferCallbacks{}); err == nil {
		t.Error("InferAsync without AttachROS accepted")
	}
}
