package inca_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"inca/internal/accel"
	"inca/internal/bench"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/interrupt"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/progcheck"
	"inca/internal/quant"
	"inca/internal/sched"
	"inca/internal/slam"
	"inca/internal/tensor"
)

// Repository-level benchmarks: one per paper table/figure (E1..E7), the
// ablation and extension studies (E8, E9), and micro-benchmarks of the
// simulation primitives. Each experiment benchmark runs the same code path
// as `inca-bench` at quick scale and reports its headline number as a
// custom metric; run `inca-bench -scale full` for the paper-scale tables.

// BenchmarkE1_InterruptPositions — Fig. 5(a): response latency & cost at 12
// sampled positions of ResNet-101 under the three interrupt methods.
func BenchmarkE1_InterruptPositions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.E1InterruptPositions(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		var vi, lbl float64
		for j := range r.Measurements[iau.PolicyVI] {
			vi += float64(r.Measurements[iau.PolicyVI][j].LatencyCycles)
			lbl += float64(r.Measurements[iau.PolicyLayerByLayer][j].LatencyCycles)
		}
		b.ReportMetric(100*vi/lbl, "VI/layer-latency-%")
	}
}

// BenchmarkE2_NetworkSweep — Fig. 5(b): per-layer latency across ResNet-101,
// VGG-16, MobileNetV1 on both accelerator configurations.
func BenchmarkE2_NetworkSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E2NetworkSweep(bench.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_BackupVsConv — the backup(t2) vs calculation(t1) table.
func BenchmarkE3_BackupVsConv(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E3BackupVsConv(bench.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_TheoryCheck — Eq. (1) worked example (R_l ≈ 1.7%).
func BenchmarkE4_TheoryCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E4TheoryCheck(bench.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5_Resources — the hardware consumption table.
func BenchmarkE5_Resources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E5Resources(bench.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_DSLAM — §5.3 scheduling: FE @20 fps + continuous PR on one
// accelerator across the three policies.
func BenchmarkE6_DSLAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.E6DSLAMScheduling(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Results[iau.PolicyVI].Degradation(), "degradation-%")
	}
}

// BenchmarkE7_Headline — the abstract's two headline claims.
func BenchmarkE7_Headline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E7Headline(bench.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8_SaveGranularity — ablation of CalcBlobs per SAVE window.
func BenchmarkE8_SaveGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E8SaveGranularity(bench.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9_MultiCore — the paper's future work: multiple accelerators
// behind a least-loaded dispatcher.
func BenchmarkE9_MultiCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E9MultiCore(bench.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10_Sensitivity — DDR bandwidth x prefetch depth sweep.
func BenchmarkE10_Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E10Sensitivity(bench.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11_Schedulability — response-time analysis of the DSLAM set.
func BenchmarkE11_Schedulability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E11Schedulability(bench.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12_Energy — energy of interrupt support.
func BenchmarkE12_Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E12Energy(bench.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the simulation primitives ------------------------

// BenchmarkCompileResNet101 measures compiling the PR backbone (quick scale)
// to VI-ISA.
func BenchmarkCompileResNet101(b *testing.B) {
	g, err := model.NewResNet(101, 3, 120, 160)
	if err != nil {
		b.Fatal(err)
	}
	q, err := quant.Synthesize(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := accel.Big()
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(q, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeployPhases splits one cold deploy of ResNet-18 60x80 (VIEvery,
// weights embedded, compiler self-check off so the phases separate) into the
// phases the deploy_cold workload times: synthesize, compile, verify, encode,
// decode, allocate the arena. MB/s is against the encoded image size, so the
// phases compare on bytes of deploy artefact moved. `make bench-deploy`.
func BenchmarkDeployPhases(b *testing.B) {
	cfg := accel.Big()
	g, err := model.NewResNet(18, 3, 60, 80)
	if err != nil {
		b.Fatal(err)
	}
	q, err := quant.Synthesize(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	opt.EmitWeights = true
	opt.Check = false
	p, err := compiler.Compile(q, opt)
	if err != nil {
		b.Fatal(err)
	}
	var enc bytes.Buffer
	if err := isa.Encode(&enc, p); err != nil {
		b.Fatal(err)
	}
	phases := []struct {
		name string
		run  func() error
	}{
		{"synth", func() error { _, err := quant.Synthesize(g, 1); return err }},
		{"compile", func() error { _, err := compiler.Compile(q, opt); return err }},
		{"verify", func() error { return progcheck.Verify(p, progcheck.Options{Cost: cfg}).Err() }},
		{"encode", func() error { var buf bytes.Buffer; return isa.Encode(&buf, p) }},
		{"decode", func() error { _, err := isa.Decode(bytes.NewReader(enc.Bytes())); return err }},
		{"arena", func() error { _, err := accel.NewArena(p); return err }},
	}
	for _, ph := range phases {
		b.Run(ph.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(enc.Len()))
			for i := 0; i < b.N; i++ {
				if err := ph.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTimingSimulation measures raw instruction-stream simulation
// throughput (instructions per second of one ResNet-101 inference).
func BenchmarkTimingSimulation(b *testing.B) {
	cfg := accel.Big()
	g, err := model.NewResNet(101, 3, 120, 160)
	if err != nil {
		b.Fatal(err)
	}
	q, err := quant.Synthesize(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	p, err := compiler.Compile(q, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interrupt.SoloCycles(cfg, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(p.Instrs))*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkFunctionalInference measures the bit-exact functional datapath on
// a small network, end to end through the IAU, at several worker counts.
// (Per-kernel datapath numbers live in internal/accel's BenchmarkEngineConv.)
func BenchmarkFunctionalInference(b *testing.B) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3
	g := model.NewResNetTiny()
	q, err := quant.Synthesize(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	opt.EmitWeights = true
	p, err := compiler.Compile(q, opt)
	if err != nil {
		b.Fatal(err)
	}
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
		fp := l.FusedPool
		if fp < 1 {
			fp = 1
		}
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
				if err := accel.WriteInput(arena, p, input); err != nil {
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

// BenchmarkPreemptionRoundTrip measures one full preempt/resume cycle
// (boundary search + backup + switch + restore) on the VI policy.
func BenchmarkPreemptionRoundTrip(b *testing.B) {
	cfg := accel.Big()
	g := model.NewVGG16(3, 60, 80)
	q, err := quant.Synthesize(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	victim, err := compiler.Compile(q, opt)
	if err != nil {
		b.Fatal(err)
	}
	probe, err := interrupt.TinyPreemptor(cfg)
	if err != nil {
		b.Fatal(err)
	}
	total, err := interrupt.SoloCycles(cfg, victim)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := interrupt.MeasureAt(cfg, iau.PolicyVI, victim, probe, total/2)
		if err != nil {
			b.Fatal(err)
		}
		if !m.Preempted {
			b.Fatal("no preemption")
		}
	}
}

// BenchmarkScheduler measures the scheduling runtime on the DSLAM mix.
func BenchmarkScheduler(b *testing.B) {
	cfg := accel.Big()
	g := model.NewSuperPoint(90, 120)
	q, err := quant.Synthesize(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	fe, err := compiler.Compile(q, cfg.CompilerOptions())
	if err != nil {
		b.Fatal(err)
	}
	gem, err := model.NewGeM(3, 120, 160)
	if err != nil {
		b.Fatal(err)
	}
	qg, err := quant.Synthesize(gem, 2)
	if err != nil {
		b.Fatal(err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	pr, err := compiler.Compile(qg, opt)
	if err != nil {
		b.Fatal(err)
	}
	specs := []sched.TaskSpec{
		{Name: "FE", Slot: 0, Prog: fe, Period: 50 * time.Millisecond, Deadline: 50 * time.Millisecond},
		{Name: "PR", Slot: 1, Prog: pr, Continuous: true},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(cfg, iau.PolicyVI, specs, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSLAMCoSim measures the full two-agent co-simulation per
// simulated second.
func BenchmarkDSLAMCoSim(b *testing.B) {
	cfg := slam.DefaultDSLAMConfig()
	cfg.Duration = 2 * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slam.RunDSLAM(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
