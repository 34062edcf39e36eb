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
// wait. Three values are compared: the closed form, the calibrated cycle
// model, and an end-to-end measurement on the simulator.
func E4TheoryCheck(scale Scale) (*Table, error) {
	cfg := accel.Small()
	g := model.NewMediumLayerNet()
	specs, err := g.ConvSpecs()
	if err != nil {
		return nil, err
	}
	spec := specs[0]

	theory := theoreticalRl(cfg, spec)
	cycleModel := measuredRl(cfg, spec)

	// End-to-end: repeat the medium layer enough times that a mid-run
	// request always lands inside one, then measure both policies.
	rep := model.New("medium-repeat", 48, 60, 80)
	cur := 0
	for i := 0; i < 6; i++ {
		cur = rep.Conv(fmt.Sprintf("conv%d", i), cur, 48, 3, 1, 1, true)
	}
	rep.Conv("convLast", cur, 32, 3, 1, 1, false)
	victim, err := compileNet(cfg, rep, compiler.VIEvery{}, 5)
	if err != nil {
		return nil, err
	}
	probe, err := tinyPreemptor(cfg)
	if err != nil {
		return nil, err
	}
	total, err := execCycles(cfg, victim)
	if err != nil {
		return nil, err
	}
	var viWorst, lblWorst uint64
	for _, pos := range samplePositions(total, 10, 77) {
		mv, err := measureAt(cfg, iau.PolicyVI, victim, probe, pos)
		if err != nil {
			return nil, err
		}
		ml, err := measureAt(cfg, iau.PolicyLayerByLayer, victim, probe, pos)
		if err != nil {
			return nil, err
		}
		if mv.Preempted && mv.LatencyCycles > viWorst {
			viWorst = mv.LatencyCycles
		}
		if ml.Preempted && ml.LatencyCycles > lblWorst {
			lblWorst = ml.LatencyCycles
		}
	}
	measured := float64(viWorst) / float64(lblWorst)

	t := &Table{
		ID:      "E4",
		Title:   "Eq.(1) worked example — medium layer 80x60, 48->32 ch, Para=(8,8,4)",
		Columns: []string{"quantity", "R_l (VI worst / layer worst)"},
	}
	t.AddRow("closed form (Eq. 1)", fmt.Sprintf("%.2f%%", 100*theory))
	t.AddRow("calibrated cycle model", fmt.Sprintf("%.2f%%", 100*cycleModel))
	t.AddRow("measured on simulator", fmt.Sprintf("%.2f%%", 100*measured))
	t.AddNote("paper: 8*4/(32*60) = 1.7%%")
	t.AddNote("measured worst waits: VI %.1f us, layer-by-layer %.1f us",
		cfg.CyclesToMicros(viWorst), cfg.CyclesToMicros(lblWorst))
	return t, nil
}
