package bench

import (
	"fmt"

	"inca/internal/accel"
	"inca/internal/iau"
	"inca/internal/model"
)

// E12Energy estimates the energy cost of interrupt support (an extension
// beyond the paper's evaluation): per-inference energy of the PR backbone,
// and the extra energy of one preemption under each mechanism. The point
// mirrors the latency result — CPU-like interrupts spend three orders of
// magnitude more energy per switch than the VI method.
func E12Energy(scale Scale) (*Table, error) {
	cfg := accel.Big()
	em := accel.DefaultEnergy()
	victim, err := compileVictim(cfg, scale)
	if err != nil {
		return nil, err
	}
	h, w := scale.inputSize()
	g, err := model.NewGeM(3, h, w)
	if err != nil {
		return nil, err
	}
	macs, err := g.TotalMACs()
	if err != nil {
		return nil, err
	}
	probe, err := tinyPreemptor(cfg)
	if err != nil {
		return nil, err
	}
	total := accel.SoloReplay(cfg, victim, nil)

	// Per-inference baseline.
	var ddr uint64
	for _, in := range victim.StripVirtual() {
		ddr += uint64(in.Len)
	}
	base := em.Estimate(uint64(macs), ddr, total)

	t := &Table{
		ID:      "E12",
		Title:   "extension — energy of interrupt support (PR backbone inference + one preemption)",
		Columns: []string{"quantity", "value"},
	}
	t.AddRow("PR inference compute", fmt.Sprintf("%.2f mJ", base.ComputeMJ))
	t.AddRow("PR inference DDR+SRAM", fmt.Sprintf("%.2f mJ", base.DDRMJ+base.SRAMMJ))
	t.AddRow("PR inference total", fmt.Sprintf("%.2f mJ", base.TotalMJ()))

	for _, pol := range []iau.Policy{iau.PolicyCPULike, iau.PolicyLayerByLayer, iau.PolicyVI} {
		var sum float64
		n := 6
		for i := 1; i <= n; i++ {
			m, err := measureAt(cfg, pol, victim, probe, total*uint64(i)/uint64(n+1))
			if err != nil {
				return nil, err
			}
			sum += em.InterruptEnergyMJ(m.BackupBytes, m.RestoreBytes) * 1000 // uJ
		}
		t.AddRow(fmt.Sprintf("preemption energy, %v", pol), fmt.Sprintf("%.1f uJ", sum/float64(n)))
	}
	t.AddNote("energy model constants in internal/accel/energy.go (not a paper experiment; the paper reports no energy numbers)")
	return t, nil
}
