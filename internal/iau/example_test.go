package iau_test

import (
	"fmt"
	"reflect"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/tensor"
)

// Example_quickstart is the core INCA guarantee end to end: compile a small
// CNN to the interruptible VI-ISA, run it on the functional accelerator while
// a high-priority task preempts it repeatedly, and check the output is
// bit-exact against the software reference.
func Example_quickstart() {
	// A background CNN, and a small high-priority CNN that keeps stealing the
	// accelerator from it, on a Para=(4,4,3) accelerator so tiles are visible.
	background := model.NewResNetTiny()
	urgent := model.NewTinyCNN(3, 16, 16)
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3

	// Quantize (synthetic int8 parameters) and compile both. The background
	// task gets the virtual-instruction pass so it can be interrupted
	// mid-layer; slot 0 is never preempted, so the urgent task needs none.
	bgQ, err := quant.Synthesize(background, 1)
	check(err)
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	opt.EmitWeights = true
	bgProg, err := compiler.Compile(bgQ, opt)
	check(err)
	urgQ, err := quant.Synthesize(urgent, 2)
	check(err)
	opt.VI = compiler.VINone{}
	urgProg, err := compiler.Compile(urgQ, opt)
	check(err)

	// Golden reference: the plain software executor.
	input := tensor.NewInt8(background.InC, background.InH, background.InW)
	tensor.FillPattern(input, 99)
	want, err := bgQ.RunFinal(input)
	check(err)

	// The same network on the simulated accelerator under the IAU, with the
	// urgent task (about 27k cycles alone) fired at it every 30k cycles.
	arena, err := accel.NewArena(bgProg)
	check(err)
	check(accel.WriteInputAt(arena, bgProg, input, 0))
	u := iau.New(cfg, iau.PolicyVI)
	check(u.Submit(1, &iau.Request{Label: "background", Prog: bgProg, Arena: arena}))
	for i := 0; i < 6; i++ {
		ua, err := accel.NewArena(urgProg)
		check(err)
		uin := tensor.NewInt8(urgent.InC, urgent.InH, urgent.InW)
		tensor.FillPattern(uin, uint64(i))
		check(accel.WriteInputAt(ua, urgProg, uin, 0))
		check(u.SubmitAt(0, &iau.Request{Label: "urgent", Prog: urgProg, Arena: ua}, uint64(2000+30000*i)))
	}
	check(u.RunAll())

	// The background task was preempted — and its output is identical.
	got, err := accel.ReadOutputAt(arena, bgProg, 0)
	check(err)
	fmt.Printf("preemptions suffered by the background task: %d\n", len(u.Preemptions))
	for i, p := range u.Preemptions {
		fmt.Printf("  #%d at layer %-12s latency %5.1f us  backup %5d B  restore %5d B\n",
			i, p.VictimLayer, cfg.CyclesToMicros(p.Latency()), p.BackupBytes, p.ResumeBytes)
	}
	fmt.Println("bit-exact versus the uninterrupted software reference:", reflect.DeepEqual(got, want))
	// Output:
	// preemptions suffered by the background task: 4
	//   #0 at layer conv1        latency   0.8 us  backup   288 B  restore   360 B
	//   #1 at layer blk1_a       latency   0.6 us  backup   144 B  restore   480 B
	//   #2 at layer blk1_b       latency   0.6 us  backup   144 B  restore   672 B
	//   #3 at layer blk2_b       latency   0.1 us  backup     0 B  restore   384 B
	// bit-exact versus the uninterrupted software reference: true
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
