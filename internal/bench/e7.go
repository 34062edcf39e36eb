package bench

import (
	"fmt"

	"inca/internal/accel"
	"inca/internal/iau"
)

// E7Headline states the abstract's headline numbers: the VI method reduces
// interrupt response latency to ~2% of the layer-by-layer method, and
// multi-task scheduling costs within 0.3% (E6).
func E7Headline(scale Scale) (*Table, error) {
	e6, err := E6DSLAMScheduling(scale)
	if err != nil {
		return nil, err
	}
	return e7Headline(scale, e6)
}

// e7Headline builds E7 on an E6 result already measured. The latency ratio
// is exact: the mean response over every arrival cycle of the ResNet-101 PR
// victim's solo run, under each method.
func e7Headline(scale Scale, e6 *E6Result) (*Table, error) {
	cfg := accel.Big()
	victim, err := compileVictim(cfg, scale)
	if err != nil {
		return nil, err
	}
	r := priceResponses(cfg, victim)
	vi, lbl := r.meanOverArrivals(r.vi), r.meanOverArrivals(r.lbl)

	t := &Table{
		ID:      "E7",
		Title:   "headline claims (abstract)",
		Columns: []string{"claim", "paper", "measured"},
	}
	t.AddRow("VI latency relative to layer-by-layer", "2%", fmt.Sprintf("%.1f%%", 100*vi/lbl))
	t.AddRow("multi-task scheduling degradation", "<0.3%", fmt.Sprintf("%.3f%%", 100*e6.Results[iau.PolicyVI].Degradation()))
	t.AddNote("latency: mean over every arrival cycle of the ResNet-101 PR victim, VI %.1f us vs layer-by-layer %.1f us",
		cfg.CyclesToMicros(uint64(vi)), cfg.CyclesToMicros(uint64(lbl)))
	return t, nil
}

// All runs every experiment at the given scale.
func All(scale Scale) ([]*Table, error) {
	var tables []*Table
	e1, err := E1InterruptPositions(scale)
	if err != nil {
		return nil, err
	}
	tables = append(tables, e1.Table)
	for _, f := range []func(Scale) (*Table, error){E2NetworkSweep, E3BackupVsConv, E4TheoryCheck, E5Resources} {
		t, err := f(scale)
		if err != nil {
			return tables, err
		}
		tables = append(tables, t)
	}
	e6, err := E6DSLAMScheduling(scale)
	if err != nil {
		return tables, err
	}
	tables = append(tables, e6.Table)
	e7, err := e7Headline(scale, e6)
	if err != nil {
		return tables, err
	}
	tables = append(tables, e7)
	return tables, nil
}
