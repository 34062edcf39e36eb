// Package interrupt evaluates interrupt mechanisms on the simulated
// accelerator: it measures response latency (t1+t2) and extra cost (t2+t4)
// for the CPU-like, layer-by-layer, and virtual-instruction methods, and it
// implements the paper's analytical worst-case model (Eq. 1).
package interrupt

import (
	"fmt"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/cost"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
)

// Measurement is the outcome of injecting one high-priority request into a
// running victim under one policy.
type Measurement struct {
	Policy       iau.Policy
	RequestCycle uint64
	// LatencyCycles is the interrupt response latency t1+t2: request to the
	// moment the accelerator is free for the high-priority task.
	LatencyCycles uint64
	// CostCycles is the extra work the interrupt added: t2 (backup) + t4
	// (restore).
	CostCycles   uint64
	BackupBytes  uint64
	RestoreBytes uint64
	VictimLayer  string
	// Preempted is false when the victim finished before the boundary was
	// reached (the request landed too close to the end of the program).
	Preempted bool
}

// LatencyMicros converts the latency to microseconds at cfg's clock.
func (m Measurement) LatencyMicros(cfg accel.Config) float64 {
	return cfg.CyclesToMicros(m.LatencyCycles)
}

// CostMicros converts the extra cost to microseconds at cfg's clock.
func (m Measurement) CostMicros(cfg accel.Config) float64 {
	return cfg.CyclesToMicros(m.CostCycles)
}

// TinyPreemptor compiles a minimal high-priority program for latency probes:
// its own duration does not affect the measured response latency.
func TinyPreemptor(cfg accel.Config) (*isa.Program, error) {
	g := model.NewTinyCNN(3, 8, 8)
	q, err := quant.Synthesize(g, 1)
	if err != nil {
		return nil, err
	}
	opt := cfg.CompilerOptions()
	return compiler.Compile(q, opt)
}

// SoloCycles runs the program alone (no preemption) and returns its total
// execution cycles, used to place interrupt positions.
func SoloCycles(cfg accel.Config, p *isa.Program) (uint64, error) {
	u := iau.New(cfg, iau.PolicyNone)
	if err := u.Submit(1, &iau.Request{Label: "solo", Prog: p}); err != nil {
		return 0, err
	}
	if err := u.RunAll(); err != nil {
		return 0, err
	}
	return u.Completions[0].Req.ExecCycles, nil
}

// MeasureAt runs the victim under the given policy and injects one
// high-priority request at reqCycle, returning the preemption metrics.
func MeasureAt(cfg accel.Config, policy iau.Policy, victim, preemptor *isa.Program, reqCycle uint64) (Measurement, error) {
	m := Measurement{Policy: policy, RequestCycle: reqCycle}
	u := iau.New(cfg, policy)
	if err := u.Submit(1, &iau.Request{Label: "victim", Prog: victim}); err != nil {
		return m, err
	}
	if err := u.SubmitAt(0, &iau.Request{Label: "probe", Prog: preemptor}, reqCycle); err != nil {
		return m, err
	}
	if err := u.RunAll(); err != nil {
		return m, err
	}
	if len(u.Preemptions) == 0 {
		return m, nil
	}
	p := u.Preemptions[0]
	m.Preempted = true
	m.LatencyCycles = p.Latency()
	m.CostCycles = p.Cost()
	m.BackupBytes = p.BackupBytes
	m.RestoreBytes = p.ResumeBytes
	m.VictimLayer = p.VictimLayer
	return m, nil
}

// Policies lists the three mechanisms the paper compares.
func Policies() []iau.Policy {
	return []iau.Policy{iau.PolicyCPULike, iau.PolicyLayerByLayer, iau.PolicyVI}
}

// WorstUninterruptibleGap returns the longest stretch of cycles between
// consecutive interrupt points of a compiled VI stream (including the backup
// at the closing point) — the stream-level blocking bound. Unlike the
// per-layer analytical model it accounts for the exact schedule the compiler
// emitted: LOAD/SAVE placement, save windows, layer boundaries. Transfer
// overlap is ignored, making it a safe upper bound.
func WorstUninterruptibleGap(cfg accel.Config, p *isa.Program) uint64 {
	return cost.Summarize(p, cfg).WorstPointGap()
}

// WorstLayerGap is the layer-by-layer equivalent: the longest stretch
// between consecutive layer boundaries in the compiled stream (switching is
// free there, so no backup term).
func WorstLayerGap(cfg accel.Config, p *isa.Program) uint64 {
	return cost.NewTable(p, cfg).WorstLayerGap()
}

// --- Analytical model (§4.3) ---------------------------------------------

// CalcCycles is t_instr(W): the duration of one CALC instruction of the
// layer on the given accelerator. Fused-pool CALCs cover FusedPool x the
// convolution rows of a plain CALC.
func CalcCycles(cfg accel.Config, s model.ConvSpec) uint64 {
	fp := s.FusedPool
	if fp < 1 {
		fp = 1
	}
	return uint64(s.OutW*s.KH*s.KW*fp) + uint64(cfg.CalcPipeCycles)
}

// groupsOf returns the tiling counts (NIn, NOut, NTiles) of a conv layer on
// the given accelerator, mirroring the compiler.
func groupsOf(cfg accel.Config, s model.ConvSpec) (nIn, nOut, nTiles int) {
	if s.Groups == s.InC && s.Groups > 1 {
		nIn = 1
	} else {
		nIn = ceilDiv(s.InC, cfg.ParaIn)
	}
	nOut = ceilDiv(s.OutC, cfg.ParaOut)
	h := s.OutH // conv rows
	if s.FusedPool > 1 {
		h = s.OutH / s.FusedPool // tiles cover pooled rows
	}
	nTiles = ceilDiv(h, cfg.ParaHeight)
	return
}

// LayerCycles estimates a full conv layer's duration, including its LOAD and
// SAVE traffic, on the given accelerator.
func LayerCycles(cfg accel.Config, s model.ConvSpec) uint64 {
	nIn, nOut, nTiles := groupsOf(cfg, s)
	calc := CalcCycles(cfg, s)
	var total uint64
	// Input traffic: the whole featuremap is loaded once across tiles.
	total += cfg.XferCycles(uint32(s.InC * s.InH * s.InW))
	// Weights: one blob per (tile, out-group).
	icg := s.InC / s.Groups
	blob := uint32(minInt(cfg.ParaOut, s.OutC)*4 + minInt(cfg.ParaOut, s.OutC)*icg*s.KH*s.KW)
	total += uint64(nTiles*nOut) * cfg.XferCycles(blob)
	// Compute.
	total += uint64(nTiles*nOut*nIn) * calc
	// Output traffic.
	total += cfg.XferCycles(uint32(s.OutC * s.OutH * s.OutW))
	return total
}

// WorstWaitLayerByLayer is the paper's t1_layer: a request arriving at the
// start of the layer waits for the whole layer.
func WorstWaitLayerByLayer(cfg accel.Config, s model.ConvSpec) uint64 {
	nIn, nOut, nTiles := groupsOf(cfg, s)
	return uint64(nTiles*nOut*nIn) * CalcCycles(cfg, s)
}

// WorstWaitVI is the paper's t1_VI: at worst one CalcBlob (the CALC chain
// over all input-channel groups) must finish before the boundary.
func WorstWaitVI(cfg accel.Config, s model.ConvSpec) uint64 {
	nIn, _, _ := groupsOf(cfg, s)
	return uint64(nIn) * CalcCycles(cfg, s)
}

// BackupCyclesVI is t2 at the worst position: the finished out-channel
// groups of the current (pooled) tile are spilled.
func BackupCyclesVI(cfg accel.Config, s model.ConvSpec) uint64 {
	h, w := s.OutH, s.OutW
	if s.FusedPool > 1 {
		h /= s.FusedPool
		w /= s.FusedPool
	}
	rows := minInt(cfg.ParaHeight, h)
	bytes := uint32(s.OutC * rows * w)
	return cfg.XferCycles(bytes)
}

// TheoreticalRl evaluates Eq. (1): the worst-case latency of the VI method
// relative to the layer-by-layer method,
// R_l = (Para_out × Para_height) / (Ch_out × H).
func TheoreticalRl(cfg accel.Config, s model.ConvSpec) float64 {
	return float64(cfg.ParaOut*cfg.ParaHeight) / float64(s.OutC*s.OutH)
}

// MeasuredRl evaluates the same ratio from the cycle model.
func MeasuredRl(cfg accel.Config, s model.ConvSpec) float64 {
	return float64(WorstWaitVI(cfg, s)) / float64(WorstWaitLayerByLayer(cfg, s))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// NetworkWaitStats aggregates per-layer worst-case waits over a network.
type NetworkWaitStats struct {
	Network   string
	Config    string
	LayerName []string
	LayerVI   []uint64 // worst wait, cycles
	LayerLBL  []uint64
}

// WorstWaits computes per-conv-layer worst waits for both methods.
func WorstWaits(cfg accel.Config, g *model.Network) (NetworkWaitStats, error) {
	specs, err := g.ConvSpecs()
	if err != nil {
		return NetworkWaitStats{}, err
	}
	st := NetworkWaitStats{Network: g.Name, Config: cfg.Name}
	for _, s := range specs {
		st.LayerName = append(st.LayerName, s.Name)
		st.LayerVI = append(st.LayerVI, WorstWaitVI(cfg, s)+BackupCyclesVI(cfg, s))
		st.LayerLBL = append(st.LayerLBL, WorstWaitLayerByLayer(cfg, s))
	}
	if len(st.LayerName) == 0 {
		return st, fmt.Errorf("interrupt: network %q has no conv layers", g.Name)
	}
	return st, nil
}

// Mean returns the average of a cycle series as a float.
func Mean(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// Max returns the maximum of a cycle series.
func Max(xs []uint64) uint64 {
	var m uint64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
