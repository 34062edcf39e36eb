package iau

import (
	"runtime"
	"testing"
	"unsafe"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
)

// resnetProg compiles a timing-only ResNet-depth 120x160 VI stream for cfg.
func resnetProg(t *testing.T, cfg accel.Config, depth int) *isa.Program {
	t.Helper()
	g, err := model.NewResNet(depth, 3, 120, 160)
	if err != nil {
		t.Fatal(err)
	}
	q, err := quant.Synthesize(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	p, err := compiler.Compile(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// soloRun runs p alone to completion on a fresh IAU and returns it.
func soloRun(t *testing.T, cfg accel.Config, p *isa.Program, run func(*IAU, uint64) error) *IAU {
	t.Helper()
	u := New(cfg, PolicyVI)
	if err := u.Submit(1, &Request{Label: "PR", Prog: p}); err != nil {
		t.Fatal(err)
	}
	if err := run(u, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if len(u.Completions) != 1 {
		t.Fatalf("%d completions, want 1", len(u.Completions))
	}
	return u
}

// TestPlainRunBuildsNoTable pins what the timing path keeps, and where.
// sched.Run builds one IAU per call (the benchmark's preempt_mix allocates
// 1.2 KB per FE frame), so a per-instruction column built per IAU costs 35x
// that workload's allocation budget (DESIGN.md §21). The plan a timing-only
// run jumps on is per program instead (§26): the first run lowers exactly
// one onto the program, and every later run on a fresh IAU reuses it, builds
// no cost table, allocates only the IAU and engine themselves, and allocates
// exactly what a run of ResNet-18, a fifteenth as many instructions, does.
func TestPlainRunBuildsNoTable(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles ResNet-101")
	}
	cfg := accel.Big()
	laterRuns := func(depth int) uint64 {
		p := resnetProg(t, cfg, depth)
		if p.Plan != nil {
			t.Fatalf("ResNet-%d: compiled program already carries a plan", depth)
		}
		soloRun(t, cfg, p, (*IAU).Run)
		plan, ok := p.Plan.(*accel.Plan)
		if !ok {
			t.Fatalf("ResNet-%d: the first run left %T on the program, want one *accel.Plan", depth, p.Plan)
		}
		best := ^uint64(0)
		for try := 0; try < 3; try++ { // TotalAlloc is process-wide: keep the quietest of three
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			u := soloRun(t, cfg, p, (*IAU).Run)
			runtime.ReadMemStats(&after)
			if len(u.tables) != 0 || p.Plan != plan {
				t.Fatalf("ResNet-%d: a later run built %d cost tables and replaced the plan: %v", depth, len(u.tables), p.Plan != plan)
			}
			got := after.TotalAlloc - before.TotalAlloc - uint64(cap(u.Completions))*uint64(unsafe.Sizeof(Completion{}))
			best = min(best, got)
		}
		t.Logf("ResNet-%d 120x160: %d instructions, %d bytes allocated beyond Completions after the first run", depth, len(p.Instrs), best)
		return best
	}
	deep, shallow := laterRuns(101), laterRuns(18)
	if deep >= 8<<10 {
		t.Errorf("timing-only ResNet-101 run allocated %d bytes beyond its Completions, want < 8 KiB", deep)
	}
	if deep != shallow {
		t.Errorf("ResNet-101 run allocated %d bytes, ResNet-18 run %d: something is sized by the program", deep, shallow)
	}
}

// TestTimingRunJumps: a solo timing-only run is one quiet stretch, so it
// jumps straight to the END — it must not quietly fall back to stepping,
// which would leave TestRunMatchesStepwise comparing two stepping loops.
func TestTimingRunJumps(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles ResNet-101")
	}
	cfg := accel.Big()
	p := resnetProg(t, cfg, 101)
	u := soloRun(t, cfg, p, (*IAU).Run)
	if u.execs >= 100 {
		t.Errorf("timing-only ResNet-101 (%d instructions) ran %d instructions one at a time, want < 100", len(p.Instrs), u.execs)
	}
	if want := accel.SoloReplay(cfg, p, nil); u.Now != want {
		t.Errorf("jumping run ends at %d, the solo replay at %d", u.Now, want)
	}
}
