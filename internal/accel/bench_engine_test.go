package accel_test

import (
	"fmt"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/tensor"
)

// Micro-benchmarks of the functional datapath. Each case compiles one small
// network whose execution is dominated by a single layer class, then runs
// the full instruction stream against a live arena. MACs/s counts true
// multiply-accumulates (conv layers only), so dense / depthwise / fused-pool
// numbers are directly comparable across datapath changes.

type engineBenchCase struct {
	name  string
	build func() *model.Network
}

func engineBenchCases() []engineBenchCase {
	return []engineBenchCase{
		{"dense3x3", func() *model.Network {
			n := model.New("dense3x3", 48, 30, 40)
			n.Conv("conv", 0, 32, 3, 1, 1, true)
			return n
		}},
		{"pointwise", func() *model.Network {
			n := model.New("pointwise", 64, 24, 24)
			n.Conv("conv", 0, 64, 1, 1, 0, true)
			return n
		}},
		{"depthwise", func() *model.Network {
			n := model.New("depthwise", 32, 48, 48)
			n.DWConv("dw", 0, 3, 1, 1, true)
			return n
		}},
		{"fusedpool", func() *model.Network {
			n := model.New("fusedpool", 16, 40, 40)
			n.Add(model.Layer{
				Name: "convp", Kind: model.KindConv, Inputs: []int{0},
				OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 1, ReLU: true,
				FusedPool: 2,
			})
			return n
		}},
		{"pool", func() *model.Network {
			n := model.New("pool", 16, 48, 48)
			c := n.Conv("conv", 0, 16, 1, 1, 0, true)
			n.MaxPool("pool", c, 2, 2)
			return n
		}},
		{"add", func() *model.Network {
			n := model.New("add", 16, 40, 40)
			a := n.Conv("a", 0, 16, 1, 1, 0, true)
			b := n.Conv("b", 0, 16, 1, 1, 0, false)
			n.Residual("add", a, b, true)
			return n
		}},
	}
}

// benchSetup compiles g for cfg and materialises an arena with a patterned
// input.
func benchSetup(b *testing.B, g *model.Network, cfg accel.Config) (*isa.Program, []byte) {
	b.Helper()
	q, err := quant.Synthesize(g, 7)
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
	arena, err := accel.NewArena(p)
	if err != nil {
		b.Fatal(err)
	}
	in := tensor.NewInt8(g.InC, g.InH, g.InW)
	tensor.FillPattern(in, 11)
	if err := accel.WriteInputAt(arena, p, in, 0); err != nil {
		b.Fatal(err)
	}
	return p, arena
}

// runStream executes every non-virtual instruction of p functionally.
func runStream(b *testing.B, eng *accel.Engine, arena []byte, p *isa.Program) {
	for _, in := range p.Instrs {
		if in.Op.Virtual() || in.Op == isa.OpEnd {
			continue
		}
		if _, err := eng.Exec(arena, p, in, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// programMACs counts the true multiply-accumulates of the program's conv
// layers.
func programMACs(p *isa.Program) float64 {
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
		macs += float64(l.OutC) * float64(l.OutH*fp) * float64(l.OutW*fp) *
			float64(l.KH*l.KW) * float64(icg)
	}
	return macs
}

// BenchmarkEngineConv measures functional datapath throughput per layer
// class, at 1 worker and (for the dense case) at higher worker counts.
func BenchmarkEngineConv(b *testing.B) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 8, 8, 4
	for _, tc := range engineBenchCases() {
		for _, workers := range []int{1, 2, 4} {
			if workers > 1 && tc.name != "dense3x3" {
				continue
			}
			c := cfg
			c.Workers = workers
			name := tc.name
			if workers > 1 {
				name = fmt.Sprintf("%s-w%d", tc.name, workers)
			}
			b.Run(name, func(b *testing.B) {
				p, arena := benchSetup(b, tc.build(), c)
				eng := accel.NewEngine(c)
				macs := programMACs(p)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runStream(b, eng, arena, p)
				}
				b.StopTimer()
				if macs > 0 {
					b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds(), "MACs/s")
				}
			})
		}
	}
}

// BenchmarkEngineSnapshot measures the CPU-like interrupt backup/restore
// round trip mid-layer, where the accumulator and finals tiles are live.
func BenchmarkEngineSnapshot(b *testing.B) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 8, 8, 4
	g := model.New("snap", 32, 24, 32)
	g.Conv("conv", 0, 32, 3, 1, 1, true)
	p, arena := benchSetup(b, g, cfg)
	eng := accel.NewEngine(cfg)
	// Stop mid-stream so the on-chip tiles are populated.
	half := 0
	for i, in := range p.Instrs {
		if in.Op == isa.OpCalcF {
			half = i + 1
			break
		}
	}
	for i := 0; i < half; i++ {
		in := p.Instrs[i]
		if in.Op.Virtual() {
			continue
		}
		if _, err := eng.Exec(arena, p, in, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := eng.Snapshot()
		eng.Restore(s)
		eng.ReleaseSnapshot(s)
	}
}
