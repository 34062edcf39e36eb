package iau_test

import (
	"fmt"
	"testing"

	"inca/internal/accel"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/tensor"
)

// BenchmarkIAUTimingOnly is the in-module view of what the benchmark's
// preempt_mix and dslam_mission workloads spend their host time on: the IAU
// running timing-only streams. A ResNet-101 120x160 (PR) runs on a reused
// IAU, submission included: alone (one stretch, a single jump on the
// program's plan, DESIGN.md §26); with a SuperPoint 120x160 (FE) arriving a
// third of the way in and preempting it (the paper's Fig. 5 pair); and as a
// closed loop under ten FE frames 20 ms apart (the DSLAM frame rate), where
// each resume steps until the engine's prefetch credit rejoins the plan.
// Mcycles/s is the headline; ns/instr divides the op by the instructions it
// retires, jumped or stepped. Requests are reused, so what allocates is per
// event (the arrival heap, Preemption records), never per instruction.
func BenchmarkIAUTimingOnly(b *testing.B) {
	cfg := accel.Big()
	g, err := model.NewResNet(101, 3, 120, 160)
	if err != nil {
		b.Fatal(err)
	}
	pr := timingProg(b, g, cfg, true)
	fe := timingProg(b, model.NewSuperPoint(120, 160), cfg, false)
	frame := cfg.SecondsToCycles(0.020)
	var frames []uint64
	for k := uint64(1); k <= 10; k++ {
		frames = append(frames, k*frame)
	}
	for _, bc := range []struct {
		name string
		fe   []uint64 // FE arrival cycles after the op's start
		loop bool     // resubmit PR on completion until the last FE arrival
	}{
		{"pr-alone", nil, false},
		{"fe-preempts-pr", []uint64{accel.SoloReplay(cfg, pr, nil) / 3}, false},
		{"fe-every-20ms", frames, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			u := iau.New(cfg, iau.PolicyVI)
			prReq, feReqs := new(iau.Request), make([]iau.Request, len(bc.fe))
			var until uint64
			u.OnComplete = func(c iau.Completion) {
				if bc.loop && c.Req == prReq && u.Now < until {
					*prReq = iau.Request{Label: "PR", Prog: pr}
					if err := u.Submit(1, prReq); err != nil {
						b.Fatal(err)
					}
				}
			}
			var cycles uint64
			instrs := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				u.Completions, u.Preemptions = u.Completions[:0], u.Preemptions[:0]
				start := u.Now
				*prReq = iau.Request{Label: "PR", Prog: pr}
				if err := u.Submit(1, prReq); err != nil {
					b.Fatal(err)
				}
				for k, at := range bc.fe {
					feReqs[k] = iau.Request{Label: "FE", Prog: fe}
					if err := u.SubmitAt(0, &feReqs[k], start+at); err != nil {
						b.Fatal(err)
					}
					until = start + at
				}
				if err := u.RunAll(); err != nil {
					b.Fatal(err)
				}
				cycles += u.Now - start
				for _, c := range u.Completions {
					instrs += len(c.Req.Prog.Instrs)
				}
			}
			if len(u.Preemptions) != len(bc.fe) {
				b.Fatalf("%d preemptions per op, want %d", len(u.Preemptions), len(bc.fe))
			}
			b.ReportMetric(float64(cycles)/1e6/b.Elapsed().Seconds(), "Mcycles/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}

// BenchmarkFunctionalInference measures the bit-exact functional datapath on
// a small network, end to end through the IAU, at several worker counts.
// (Per-kernel datapath numbers live in internal/accel's BenchmarkEngineConv.)
func BenchmarkFunctionalInference(b *testing.B) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3
	g := model.NewResNetTiny()
	p, _ := buildFunctional(b, g, cfg, true, 1)
	var macs float64
	for i := range p.Layers {
		l := &p.Layers[i]
		if l.Op != isa.LayerConv {
			continue
		}
		icg := l.InC
		if l.Groups == l.InC && l.Groups > 1 {
			icg = 1
		}
		fp := max(l.FusedPool, 1)
		macs += float64(l.OutC*l.OutH*fp*l.OutW*fp) * float64(l.KH*l.KW*icg)
	}
	input := tensor.NewInt8(g.InC, g.InH, g.InW)
	tensor.FillPattern(input, 5)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			wcfg := cfg
			wcfg.Workers = workers
			for i := 0; i < b.N; i++ {
				arena, err := accel.NewArena(p)
				if err != nil {
					b.Fatal(err)
				}
				if err := accel.WriteInputAt(arena, p, input, 0); err != nil {
					b.Fatal(err)
				}
				u := iau.New(wcfg, iau.PolicyNone)
				if err := u.Submit(1, &iau.Request{Label: "f", Prog: p, Arena: arena}); err != nil {
					b.Fatal(err)
				}
				if err := u.RunAll(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds(), "MACs/s")
		})
	}
}
