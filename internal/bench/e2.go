package bench

import (
	"fmt"
	"slices"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/model"
)

// E2NetworkSweep reproduces Fig. 5(b): average and worst interrupt response
// latency of the layer-by-layer and VI methods across the layers of
// ResNet-101, VGG-16, and MobileNetV1, on both the big (16,16,8) and small
// (8,8,4) accelerator configurations.
//
// The per-layer worst-case columns come from the calibrated analytical
// model; the "meas" columns cross-validate them with end-to-end simulator
// measurements at sampled request positions on the big configuration.
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
		for _, cfg := range cfgs {
			st, err := worstWaits(cfg, g)
			if err != nil {
				return nil, fmt.Errorf("E2 %s/%s: %w", g.Name, cfg.Name, err)
			}
			avgL := cfg.CyclesToMicros(meanCycles(st.LayerLBL))
			worstL := cfg.CyclesToMicros(slices.Max(st.LayerLBL))
			avgV := cfg.CyclesToMicros(meanCycles(st.LayerVI))
			worstV := cfg.CyclesToMicros(slices.Max(st.LayerVI))
			mL, mV := "-", "-"
			if cfg.ParaIn == 16 {
				// Cross-validate on the big configuration.
				lm, vm, err := e2Measure(cfg, g)
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
	t.AddNote("analytical columns: per-layer worst case; measured columns: mean over 4 sampled request positions (big accel)")
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
func e2Measure(cfg accel.Config, g *model.Network) (layerUs, viUs float64, err error) {
	p, err := compileNet(cfg, g, compiler.VIEvery{}, 1)
	if err != nil {
		return 0, 0, err
	}
	probe, err := tinyPreemptor(cfg)
	if err != nil {
		return 0, 0, err
	}
	total, err := execCycles(cfg, p)
	if err != nil {
		return 0, 0, err
	}
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
