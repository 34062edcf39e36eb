package bench

import (
	"fmt"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
)

// compileVictim builds the PR network (GeM's ResNet-101 backbone) as an
// interruptible timing program for the configuration.
func compileVictim(cfg accel.Config, scale Scale) (*isa.Program, error) {
	h, w := scale.inputSize()
	g, err := model.NewGeM(3, h, w)
	if err != nil {
		return nil, err
	}
	return compileNet(cfg, g, compiler.VIEvery{}, 1)
}

// samplePositions draws n deterministic interrupt request cycles across the
// victim's runtime (the paper randomly samples 12 positions of ResNet-101).
func samplePositions(total uint64, n int, seed uint64) []uint64 {
	out := make([]uint64, 0, n)
	s := seed
	for i := 0; i < n; i++ {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		frac := 0.03 + 0.92*float64(z>>11)/(1<<53)
		out = append(out, uint64(frac*float64(total)))
	}
	return out
}

// E1Result carries the raw measurements behind the Fig. 5(a) table.
type E1Result struct {
	Table        *Table
	Measurements map[iau.Policy][]Measurement
}

// E1InterruptPositions reproduces Fig. 5(a): interrupt response latency and
// extra time cost at 12 sampled positions of the ResNet-101 PR backbone,
// for the CPU-like, layer-by-layer, and virtual-instruction methods.
func E1InterruptPositions(scale Scale) (*E1Result, error) {
	cfg := accel.Big()
	victim, err := compileVictim(cfg, scale)
	if err != nil {
		return nil, err
	}
	probe, err := tinyPreemptor(cfg)
	if err != nil {
		return nil, err
	}
	total := accel.SoloReplay(cfg, victim, nil)
	positions := samplePositions(total, 12, 2020)

	res := &E1Result{
		Table: &Table{
			ID:    "E1",
			Title: "Fig.5(a) — interrupt response latency & extra cost, 12 positions of ResNet-101",
			Columns: []string{"pos", "layer",
				"cpu-like lat(us)", "cpu-like cost(us)",
				"layer lat(us)", "layer cost(us)",
				"VI lat(us)", "VI cost(us)"},
		},
		Measurements: make(map[iau.Policy][]Measurement),
	}
	lat, cost := make(map[iau.Policy]float64), make(map[iau.Policy]float64)
	for i, pos := range positions {
		row := []string{fmt.Sprintf("%d", i+1), ""}
		for _, pol := range []iau.Policy{iau.PolicyCPULike, iau.PolicyLayerByLayer, iau.PolicyVI} {
			m, err := measureAt(cfg, pol, victim, probe, pos)
			if err != nil {
				return nil, fmt.Errorf("E1 position %d policy %v: %w", i, pol, err)
			}
			if row[1] == "" {
				row[1] = m.VictimLayer
			}
			res.Measurements[pol] = append(res.Measurements[pol], m)
			lat[pol] += m.LatencyMicros(cfg)
			cost[pol] += m.CostMicros(cfg)
			row = append(row,
				fmt.Sprintf("%.1f", m.LatencyMicros(cfg)),
				fmt.Sprintf("%.1f", m.CostMicros(cfg)))
		}
		res.Table.AddRow(row...)
	}

	n := float64(len(positions))
	res.Table.AddNote("mean latency: cpu-like %.1f us, layer-by-layer %.1f us, VI %.1f us (VI/layer = %.1f%%)",
		lat[iau.PolicyCPULike]/n, lat[iau.PolicyLayerByLayer]/n, lat[iau.PolicyVI]/n,
		100*lat[iau.PolicyVI]/lat[iau.PolicyLayerByLayer])
	res.Table.AddNote("mean extra cost: cpu-like %.1f us, layer-by-layer 0, VI %.1f us",
		cost[iau.PolicyCPULike]/n, cost[iau.PolicyVI]/n)
	res.Table.AddNote("paper: CPU-like pays the largest cost; layer-by-layer has zero cost but the largest latency; VI has both low")
	return res, nil
}
