package bench

import (
	"fmt"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/cost"
	"inca/internal/isa"
	"inca/internal/model"
)

// e3Row is one layer shape from the paper's backup-vs-calculation table,
// with the paper's measured microseconds for reference.
type e3Row struct {
	H, W, ChIn, ChOut int
	K, Stride, Pad    int
	PaperBackupUs     float64
	PaperConvUs       float64
}

var e3Rows = []e3Row{
	{480, 640, 3, 64, 7, 2, 3, 26.29, 52.38},
	{120, 160, 128, 128, 3, 1, 1, 8.77, 41.18},
	{30, 40, 1024, 2048, 1, 1, 0, 1.25, 8.75},
	{30, 40, 512, 512, 3, 1, 1, 1.42, 39.36},
	{16, 20, 512, 512, 3, 1, 1, 0.75, 20.16},
}

// E3BackupVsConv reproduces the paper's time comparison between data backup
// (t2) and calculation (t1) across representative layer shapes: the backup a
// virtual interrupt performs is a small fraction of the computation it
// avoids waiting for, except in channel-starved first layers. Each shape is
// compiled as a one-layer network; t1 is its longest CalcBlob and t2 its
// largest Vir_SAVE backup (cost.Site.Backup).
func E3BackupVsConv(scale Scale) (*Table, error) {
	cfg := accel.Big()
	t := &Table{
		ID:    "E3",
		Title: "backup (t2) vs calculation (t1) per layer shape, Para=(16,16,8) @300MHz",
		Columns: []string{"H", "W", "Chin", "Chout", "kernel",
			"backup t2(us)", "conv t1(us)", "t2/t1",
			"paper t2(us)", "paper t1(us)", "paper ratio"},
	}
	for _, r := range e3Rows {
		g := model.New("layer", r.ChIn, r.H, r.W)
		g.Conv("layer", 0, r.ChOut, r.K, r.Stride, r.Pad, true)
		p, err := compileNet(cfg, g, compiler.VIEvery{}, 1)
		if err != nil {
			return nil, fmt.Errorf("E3 %dx%dx%d: %w", r.H, r.W, r.ChIn, err)
		}
		var backup uint64
		for _, st := range cost.Summarize(p, cfg).Sites {
			backup = max(backup, st.Backup)
		}
		t1, t2 := cfg.CyclesToMicros(longestCalcBlob(cfg, p)), cfg.CyclesToMicros(backup)
		t.AddRow(
			fmt.Sprintf("%d", r.H), fmt.Sprintf("%d", r.W),
			fmt.Sprintf("%d", r.ChIn), fmt.Sprintf("%d", r.ChOut),
			fmt.Sprintf("%dx%d", r.K, r.K),
			fmt.Sprintf("%.2f", t2), fmt.Sprintf("%.2f", t1),
			fmt.Sprintf("%.1f%%", 100*t2/t1),
			fmt.Sprintf("%.2f", r.PaperBackupUs), fmt.Sprintf("%.2f", r.PaperConvUs),
			fmt.Sprintf("%.1f%%", 100*r.PaperBackupUs/r.PaperConvUs),
		)
	}
	t.AddNote("shape preserved: backup is large relative to compute only in the channel-starved first layer and shrinks to a few percent in deep layers")
	return t, nil
}

// longestCalcBlob returns the CALC price of p's longest CalcBlob, the chain of
// CALC_I over a tile's input-channel groups closed by its CALC_F: the
// computation an interrupt at worst waits out (t1).
func longestCalcBlob(cfg accel.Config, p *isa.Program) (worst uint64) {
	var blob uint64
	for _, in := range p.Instrs {
		if in.Op == isa.OpCalcI || in.Op == isa.OpCalcF {
			blob += cfg.InstrCycles(p, in)
		}
		if in.Op == isa.OpCalcF {
			worst, blob = max(worst, blob), 0
		}
	}
	return worst
}
