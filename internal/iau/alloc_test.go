package iau

import (
	"runtime"
	"testing"
	"unsafe"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/model"
	"inca/internal/quant"
)

// TestPlainRunBuildsNoTable pins what the timing path may keep per run:
// nothing sized by the instruction stream. sched.Run builds one IAU per call
// (the benchmark's preempt_mix allocates 1.2 KB per FE frame), so a
// per-instruction price array built at first dispatch — prototyped, and
// faster still — costs 35x that workload's allocation budget (DESIGN.md §21).
// A timing-only run of ResNet-101 therefore builds no cost table, allocates
// only the IAU and engine themselves, and allocates exactly what a run of
// ResNet-18, a fifteenth as many instructions, does.
func TestPlainRunBuildsNoTable(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles ResNet-101")
	}
	cfg := accel.Big()
	plainRun := func(depth int) uint64 {
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
		best := ^uint64(0)
		for try := 0; try < 3; try++ { // TotalAlloc is process-wide: keep the quietest of three
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			u := New(cfg, PolicyVI)
			if err := u.Submit(1, &Request{Label: "PR", Prog: p}); err != nil {
				t.Fatal(err)
			}
			if err := u.RunAll(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if len(u.Completions) != 1 || len(u.tables) != 0 {
				t.Fatalf("ResNet-%d: %d completions, %d cost tables built by plain execution", depth, len(u.Completions), len(u.tables))
			}
			got := after.TotalAlloc - before.TotalAlloc - uint64(cap(u.Completions))*uint64(unsafe.Sizeof(Completion{}))
			best = min(best, got)
		}
		t.Logf("ResNet-%d 120x160: %d instructions, %d bytes allocated beyond Completions", depth, len(p.Instrs), best)
		return best
	}
	deep, shallow := plainRun(101), plainRun(18)
	if deep >= 8<<10 {
		t.Errorf("timing-only ResNet-101 run allocated %d bytes beyond its Completions, want < 8 KiB", deep)
	}
	if deep != shallow {
		t.Errorf("ResNet-101 run allocated %d bytes, ResNet-18 run %d: something is sized by the program", deep, shallow)
	}
}
