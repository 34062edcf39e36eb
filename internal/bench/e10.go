package bench

import (
	"fmt"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/quant"
)

// E10Sensitivity sweeps the two simulator assumptions absolute numbers
// depend on — effective DDR bandwidth and DMA prefetch depth — and shows
// the reproduced conclusions (VI latency far below layer-by-layer, bounded
// VI cost) hold across the sweep. This is the robustness evidence behind
// EXPERIMENTS.md's "reading the numbers" note.
func E10Sensitivity(scale Scale) (*Table, error) {
	h, w := scale.inputSize()
	g, err := model.NewGeM(3, h, w)
	if err != nil {
		return nil, err
	}
	q, err := quant.Synthesize(g, 1)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "E10",
		Title: "sensitivity — DDR bandwidth x prefetch depth (ResNet-101 victim)",
		Columns: []string{"DDR GB/s", "prefetch KB", "solo(ms)",
			"VI lat(us)", "layer lat(us)", "ratio", "VI cost(us)"},
	}
	for _, bw := range []float64{3.2, 6.4, 12.8} {
		for _, pf := range []int{0, 768 << 10} {
			cfg := accel.Big()
			cfg.DDRBandwidthGBps = bw
			cfg.PrefetchBytes = pf
			opt := cfg.CompilerOptions()
			opt.VI = compiler.VIEvery{}
			p, err := compiler.Compile(q, opt)
			if err != nil {
				return nil, err
			}
			probe, err := tinyPreemptor(cfg)
			if err != nil {
				return nil, err
			}
			total := accel.SoloReplay(cfg, p, nil)
			var vi, lbl, cost float64
			n := 6
			for i := 1; i <= n; i++ {
				pos := total * uint64(i) / uint64(n+1)
				mv, err := measureAt(cfg, iau.PolicyVI, p, probe, pos)
				if err != nil {
					return nil, err
				}
				ml, err := measureAt(cfg, iau.PolicyLayerByLayer, p, probe, pos)
				if err != nil {
					return nil, err
				}
				vi += float64(mv.LatencyCycles)
				lbl += float64(ml.LatencyCycles)
				cost += mv.CostMicros(cfg)
			}
			t.AddRow(
				fmt.Sprintf("%.1f", bw),
				fmt.Sprintf("%d", pf>>10),
				fmt.Sprintf("%.1f", cfg.CyclesToMicros(total)/1000),
				fmt.Sprintf("%.1f", cfg.CyclesToMicros(uint64(vi/float64(n)))),
				fmt.Sprintf("%.1f", cfg.CyclesToMicros(uint64(lbl/float64(n)))),
				fmt.Sprintf("%.1f%%", 100*vi/lbl),
				fmt.Sprintf("%.1f", cost/float64(n)),
			)
		}
	}
	t.AddNote("the VI advantage (latency ratio far below 1) survives halving/doubling the memory system assumptions")
	return t, nil
}
