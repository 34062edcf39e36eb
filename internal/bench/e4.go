package bench

import (
	"fmt"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/model"
)

// E4TheoryCheck validates Eq. (1) on the paper's worked example (§4.3): a
// medium layer (80x60 featuremap, 48->32 channels) on the small accelerator
// (Para=(8,8,4)) should show the VI method reducing the worst-case wait to
// R_l = Para_out*Para_height / (Ch_out*H) ≈ 1.7% of the layer-by-layer
// wait. Three values are compared: the closed form, the exact worst response
// over every arrival in the compiled layer (plan + cost table sites), and the
// simulator's probes at the two arrivals that reach those worsts.
func E4TheoryCheck(scale Scale) (*Table, error) {
	cfg := accel.Small()
	victim, err := compileNet(cfg, model.NewMediumLayerNet(), compiler.VIEvery{}, 5)
	if err != nil {
		return nil, err
	}
	r := priceResponses(cfg, victim)
	var viWorst, viAt, lblWorst, lblAt uint64
	for pc := range r.end {
		if v, at := r.worst(pc, r.vi); v > viWorst {
			viWorst, viAt = v, at
		}
		if l, at := r.worst(pc, r.lbl); l > lblWorst {
			lblWorst, lblAt = l, at
		}
	}
	probe, err := tinyPreemptor(cfg)
	if err != nil {
		return nil, err
	}
	mv, err := measureAt(cfg, iau.PolicyVI, victim, probe, viAt)
	if err != nil {
		return nil, err
	}
	ml, err := measureAt(cfg, iau.PolicyLayerByLayer, victim, probe, lblAt)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "E4",
		Title:   "Eq.(1) worked example — medium layer 80x60, 48->32 ch, Para=(8,8,4)",
		Columns: []string{"quantity", "R_l (VI worst / layer worst)"},
	}
	t.AddRow("closed form (Eq. 1)", fmt.Sprintf("%.2f%%", 100*theoreticalRl(cfg, victim.Layers[0].OutC, victim.Layers[0].OutH)))
	t.AddRow("every position (plan + cost table)", fmt.Sprintf("%.2f%%", 100*float64(viWorst)/float64(lblWorst)))
	t.AddRow("simulator probe at the two worst positions",
		fmt.Sprintf("%.2f%%", 100*float64(mv.LatencyCycles)/float64(ml.LatencyCycles)))
	t.AddNote("paper: 8*4/(32*60) = 1.7%%")
	t.AddNote("worst responses: VI %d cycles (%.1f us) at cycle %d, layer-by-layer %d cycles (%.1f us) at cycle %d; probes: %d and %d cycles",
		viWorst, cfg.CyclesToMicros(viWorst), viAt, lblWorst, cfg.CyclesToMicros(lblWorst), lblAt,
		mv.LatencyCycles, ml.LatencyCycles)
	return t, nil
}
