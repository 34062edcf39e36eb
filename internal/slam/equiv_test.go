package slam_test

import (
	"bytes"
	"testing"
	"time"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/golden"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/sched"
	"inca/internal/tensor"
	"inca/internal/world"
)

// TestDSLAMPreemptiveEquivalence is the paper's workload pair under the
// verification methodology: a (downscaled) SuperPoint feature extractor as
// the periodic hard-deadline FE task and a residual PR backbone as the
// continuous background task, both executing functionally through the full
// sched → IAU → engine stack under the VI method. After tens of preempted
// iterations each task's DDR arena must be bit-identical to the golden
// sequential interpreter — preemption may never change a single byte of
// either network's results.
func TestDSLAMPreemptiveEquivalence(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3

	build := func(g *model.Network, seed uint64) *isa.Program {
		t.Helper()
		q, err := quant.Synthesize(g, seed)
		if err != nil {
			t.Fatal(err)
		}
		opt := cfg.CompilerOptions()
		opt.VI = compiler.VIEvery{}
		opt.EmitWeights = true
		p, err := compiler.Compile(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	feNet := model.NewSuperPoint(12, 16)
	prNet := model.NewResNetTiny()
	fe := build(feNet, 51)
	pr := build(prNet, 52)

	// The FE input is a real rendered camera frame, as in deployment.
	w := world.NewArena(12)
	cam := world.DefaultCamera(16, 12)
	obs := cam.Observe(w, 0, world.Pose{X: 10, Y: 9, Theta: 1.1}, time.Second, 3)
	feIn := cam.Render(obs)
	prIn := tensor.NewInt8(prNet.InC, prNet.InH, prNet.InW)
	tensor.FillPattern(prIn, 77)

	feWant, err := golden.RunNet(fe, feIn)
	if err != nil {
		t.Fatal(err)
	}
	prWant, err := golden.RunNet(pr, prIn)
	if err != nil {
		t.Fatal(err)
	}

	mkArena := func(p *isa.Program, in *tensor.Int8) []byte {
		t.Helper()
		arena, err := accel.NewArena(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := accel.WriteInputAt(arena, p, in, 0); err != nil {
			t.Fatal(err)
		}
		return arena
	}
	feArena := mkArena(fe, feIn)
	prArena := mkArena(pr, prIn)

	specs := []sched.TaskSpec{
		{Name: "FE", Slot: 0, Prog: fe, Arena: feArena, Period: 2 * time.Millisecond},
		{Name: "PR", Slot: 1, Prog: pr, Arena: prArena, Continuous: true},
	}
	res, err := sched.Run(cfg, iau.PolicyVI, specs, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	feStat, prStat := res.Tasks["FE"], res.Tasks["PR"]
	if feStat.Completed == 0 || prStat.Completed == 0 {
		t.Fatalf("starved: FE %d, PR %d completions", feStat.Completed, prStat.Completed)
	}
	if prStat.Preempted == 0 {
		t.Fatal("PR was never preempted — the workload pair exercised nothing")
	}
	if !bytes.Equal(feWant, feArena) {
		t.Error("FE (SuperPoint) arena differs from golden after the scheduling run")
	}
	if !bytes.Equal(prWant, prArena) {
		t.Errorf("PR arena differs from golden after %d preempted iterations", prStat.Preempted)
	}
}
