package bench

import (
	"fmt"

	"inca/internal/accel"
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
// avoids waiting for, except in channel-starved first layers.
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
		spec := model.ConvSpec{
			Name: "layer", InC: r.ChIn, InH: r.H, InW: r.W,
			OutC: r.ChOut,
			OutH: (r.H+2*r.Pad-r.K)/r.Stride + 1,
			OutW: (r.W+2*r.Pad-r.K)/r.Stride + 1,
			KH:   r.K, KW: r.K, Stride: r.Stride, Pad: r.Pad, Groups: 1,
		}
		t1 := cfg.CyclesToMicros(worstWaitVI(cfg, spec))
		// Backup: the pending save window's finished channels for the tile
		// (BlobsPerSave=2 out-channel groups, capped at the layer width).
		winCh := 2 * cfg.ParaOut
		if winCh > spec.OutC {
			winCh = spec.OutC
		}
		rows := cfg.ParaHeight
		if rows > spec.OutH {
			rows = spec.OutH
		}
		t2 := cfg.CyclesToMicros(cfg.XferCycles(uint32(winCh * rows * spec.OutW)))
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
