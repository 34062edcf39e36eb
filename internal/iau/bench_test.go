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
// stepping a timing-only stream. One op is one ResNet-101 120x160 (PR) run on
// a reused IAU — alone, and with a SuperPoint 120x160 (FE) arriving a third
// of the way in and preempting it (the paper's Fig. 5 pair). Submission,
// admission and the first instruction happen with the timer stopped, so
// pr-alone times one uninterrupted stretch and must report 0 allocs/op; the
// pair adds the per-event records (arrival pop, Preemption) and nothing per
// instruction.
func BenchmarkIAUTimingOnly(b *testing.B) {
	cfg := accel.Big()
	g, err := model.NewResNet(101, 3, 120, 160)
	if err != nil {
		b.Fatal(err)
	}
	pr := timingProg(b, g, cfg, true)
	fe := timingProg(b, model.NewSuperPoint(120, 160), cfg, false)
	solo := iau.New(cfg, iau.PolicyVI)
	if err := solo.Submit(1, &iau.Request{Prog: pr}); err != nil {
		b.Fatal(err)
	}
	if err := solo.RunAll(); err != nil {
		b.Fatal(err)
	}

	for _, withFE := range []bool{false, true} {
		name, instrs := "pr-alone", len(pr.Instrs)
		if withFE {
			name, instrs = "fe-preempts-pr", len(pr.Instrs)+len(fe.Instrs)
		}
		b.Run(name, func(b *testing.B) {
			u := iau.New(cfg, iau.PolicyVI)
			var cycles uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				u.Completions, u.Preemptions = u.Completions[:0], u.Preemptions[:0]
				start := u.Now
				if err := u.Submit(1, &iau.Request{Label: "PR", Prog: pr}); err != nil {
					b.Fatal(err)
				}
				if withFE {
					if err := u.SubmitAt(0, &iau.Request{Label: "FE", Prog: fe}, start+solo.Now/3); err != nil {
						b.Fatal(err)
					}
				}
				if err := u.Run(start + 1); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := u.RunAll(); err != nil {
					b.Fatal(err)
				}
				cycles += u.Now - start
			}
			if withFE && len(u.Preemptions) != 1 {
				b.Fatalf("%d preemptions per op, want 1", len(u.Preemptions))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*instrs), "ns/instr")
			b.ReportMetric(float64(cycles)/1e6/b.Elapsed().Seconds(), "Mcycles/s")
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
