package bench

import (
	"fmt"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/quant"
)

// E8SaveGranularity is an ablation of the INCA design choice DESIGN.md calls
// out: how many CalcBlobs share one SAVE window (Fig. 4 of the paper shows a
// window of two). Eager per-blob saves minimise the backup a virtual
// interrupt must perform but add SAVE setup traffic; large windows batch the
// stores but leave more unsaved state at an interrupt.
func E8SaveGranularity(scale Scale) (*Table, error) {
	cfg := accel.Big()
	h, w := scale.inputSize()
	g, err := model.NewGeM(3, h, w)
	if err != nil {
		return nil, err
	}
	q, err := quant.Synthesize(g, 1)
	if err != nil {
		return nil, err
	}
	probe, err := tinyPreemptor(cfg)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "E8",
		Title: "ablation — CalcBlobs per SAVE window (ResNet-101 victim)",
		Columns: []string{"blobs/save", "instrs", "solo(ms)",
			"VI mean lat(us)", "VI mean cost(us)", "mean backup(B)"},
	}
	for _, bps := range []int{1, 2, 4, 0} {
		opt := cfg.CompilerOptions()
		opt.VI = compiler.VIEvery{}
		opt.BlobsPerSave = bps
		p, err := compiler.Compile(q, opt)
		if err != nil {
			return nil, fmt.Errorf("E8 bps=%d: %w", bps, err)
		}
		total := accel.SoloReplay(cfg, p, nil)
		var lat, cost, backup float64
		n := 8
		for i := 1; i <= n; i++ {
			m, err := measureAt(cfg, iau.PolicyVI, p, probe, total*uint64(i)/uint64(n+1))
			if err != nil {
				return nil, err
			}
			lat += m.LatencyMicros(cfg)
			cost += m.CostMicros(cfg)
			backup += float64(m.BackupBytes)
		}
		label := fmt.Sprintf("%d", bps)
		if bps == 0 {
			label = "tile"
		}
		t.AddRow(label,
			fmt.Sprintf("%d", len(p.Instrs)),
			fmt.Sprintf("%.1f", cfg.CyclesToMicros(total)/1000),
			fmt.Sprintf("%.1f", lat/float64(n)),
			fmt.Sprintf("%.1f", cost/float64(n)),
			fmt.Sprintf("%.0f", backup/float64(n)),
		)
	}
	t.AddNote("smaller SAVE windows shrink interrupt latency and backup volume at near-zero runtime cost; the paper's Fig. 4 window (2) is the default")
	return t, nil
}
