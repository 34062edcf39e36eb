package bench

import (
	"fmt"
	"slices"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
)

// E2NetworkSweep reproduces Fig. 5(b): average and worst interrupt response
// latency of the layer-by-layer and VI methods across the layers of
// ResNet-101, VGG-16, and MobileNetV1, on both the big (16,16,8) and small
// (8,8,4) accelerator configurations.
//
// Each conv layer's worst response is exact, the largest over every arrival
// while the layer runs (convLayerWorsts); the columns average and maximise it
// over the network's conv layers. The "meas" columns are end-to-end simulator
// probes at sampled request positions on the big configuration.
func E2NetworkSweep(scale Scale) (*Table, error) {
	h, w := scale.inputSize()
	resnet, err := model.NewResNet(101, 3, h, w)
	if err != nil {
		return nil, err
	}
	nets := []*model.Network{resnet, model.NewVGG16(3, h, w), model.NewMobileNetV1(3, h, w)}
	cfgs := []accel.Config{accel.Big(), accel.Small()}

	t := &Table{
		ID:    "E2",
		Title: "Fig.5(b) — per-layer interrupt response latency across networks and accelerators",
		Columns: []string{"network", "accel",
			"layer avg(us)", "layer worst(us)",
			"VI avg(us)", "VI worst(us)", "reduction(x)",
			"meas layer(us)", "meas VI(us)"},
	}
	for _, g := range nets {
		q, err := quant.Synthesize(g, 1)
		if err != nil {
			return nil, err
		}
		for _, cfg := range cfgs {
			opt := cfg.CompilerOptions()
			opt.VI = compiler.VIEvery{}
			p, err := compiler.Compile(q, opt)
			if err != nil {
				return nil, fmt.Errorf("E2 %s/%s: %w", g.Name, cfg.Name, err)
			}
			lw, err := convLayerWorsts(cfg, p)
			if err != nil {
				return nil, fmt.Errorf("E2 %s/%s: %w", g.Name, cfg.Name, err)
			}
			avgL := cfg.CyclesToMicros(meanCycles(lw.LBL))
			worstL := cfg.CyclesToMicros(slices.Max(lw.LBL))
			avgV := cfg.CyclesToMicros(meanCycles(lw.VI))
			worstV := cfg.CyclesToMicros(slices.Max(lw.VI))
			mL, mV := "-", "-"
			if cfg.ParaIn == 16 {
				// Cross-validate on the big configuration.
				lm, vm, err := e2Measure(cfg, p)
				if err != nil {
					return nil, fmt.Errorf("E2 measure %s: %w", g.Name, err)
				}
				mL, mV = fmt.Sprintf("%.1f", lm), fmt.Sprintf("%.1f", vm)
			}
			t.AddRow(g.Name, cfg.Name,
				fmt.Sprintf("%.1f", avgL), fmt.Sprintf("%.1f", worstL),
				fmt.Sprintf("%.1f", avgV), fmt.Sprintf("%.1f", worstV),
				fmt.Sprintf("%.0f", avgL/avgV),
				mL, mV)
		}
	}
	t.AddNote("exact columns: per conv layer, the worst response over every arrival (plan + cost table sites); measured columns: mean over 4 sampled request positions (big accel)")
	if scale == Full {
		t.AddNote("paper: ResNet/VGG layer-by-layer latency is ms to tens of ms; VI brings it under 100 us")
		t.AddNote("paper: MobileNet layer-by-layer is ~1 ms; VI still reduces it by 2-3 orders of magnitude")
	} else {
		t.AddNote("quick scale (%dx%d input): absolute numbers shrink with the featuremaps; ratios keep the paper's ordering", h, w)
	}
	return t, nil
}

// meanCycles is the mean of a non-empty per-layer series, truncated to a
// whole cycle.
func meanCycles(xs []uint64) uint64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return uint64(s / float64(len(xs)))
}

// e2Measure runs end-to-end latency probes on the simulator: mean response
// latency of both methods over 4 sampled positions.
func e2Measure(cfg accel.Config, p *isa.Program) (layerUs, viUs float64, err error) {
	probe, err := tinyPreemptor(cfg)
	if err != nil {
		return 0, 0, err
	}
	total := accel.SoloReplay(cfg, p, nil)
	n := 4
	for i := 1; i <= n; i++ {
		pos := total * uint64(i) / uint64(n+1)
		ml, err := measureAt(cfg, iau.PolicyLayerByLayer, p, probe, pos)
		if err != nil {
			return 0, 0, err
		}
		mv, err := measureAt(cfg, iau.PolicyVI, p, probe, pos)
		if err != nil {
			return 0, 0, err
		}
		layerUs += ml.LatencyMicros(cfg)
		viUs += mv.LatencyMicros(cfg)
	}
	return layerUs / float64(n), viUs / float64(n), nil
}
