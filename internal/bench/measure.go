package bench

import (
	"fmt"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
)

// The interrupt measurement harness and the paper's analytical model (§4.3,
// Eq. (1)) that E1–E4, E8, E10 and E12 are built on: inject one
// high-priority request into a running victim and read the IAU's preemption
// record, and predict per-layer worst waits from the layer shape alone.

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

// tinyPreemptor compiles a minimal high-priority program for latency probes:
// its own duration does not affect the measured response latency.
func tinyPreemptor(cfg accel.Config) (*isa.Program, error) {
	return compileNet(cfg, model.NewTinyCNN(3, 8, 8), compiler.VINone{}, 1)
}

// execCycles runs p alone on an IAU and returns the cycles its real
// instructions took (Request.ExecCycles), the time base every E-table places
// its probe positions on and E12 prices energy over. It is deliberately not
// accel.SoloReplay, the accelerator occupancy: that also counts each virtual
// instruction's fetch, so switching would move every E1/E2/E4/E8/E10/E12
// sample.
func execCycles(cfg accel.Config, p *isa.Program) (uint64, error) {
	u := iau.New(cfg, iau.PolicyNone)
	if err := u.Submit(1, &iau.Request{Label: "solo", Prog: p}); err != nil {
		return 0, err
	}
	if err := u.RunAll(); err != nil {
		return 0, err
	}
	return u.Completions[0].Req.ExecCycles, nil
}

// measureAt runs the victim under the given policy and injects one
// high-priority request at reqCycle, returning the preemption metrics.
func measureAt(cfg accel.Config, policy iau.Policy, victim, preemptor *isa.Program, reqCycle uint64) (Measurement, error) {
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

// --- Analytical model (§4.3) ---------------------------------------------

// calcCycles is t_instr(W): the duration of one CALC instruction of the
// layer on the given accelerator. Fused-pool CALCs cover FusedPool x the
// convolution rows of a plain CALC.
func calcCycles(cfg accel.Config, s model.ConvSpec) uint64 {
	fp := max(s.FusedPool, 1)
	return uint64(s.OutW*s.KH*s.KW*fp) + uint64(cfg.CalcPipeCycles)
}

// groupsOf returns the tiling counts (NIn, NOut, NTiles) of a conv layer on
// the given accelerator, mirroring the compiler.
func groupsOf(cfg accel.Config, s model.ConvSpec) (nIn, nOut, nTiles int) {
	if s.Groups == s.InC && s.Groups > 1 {
		nIn = 1
	} else {
		nIn = (s.InC + cfg.ParaIn - 1) / cfg.ParaIn
	}
	nOut = (s.OutC + cfg.ParaOut - 1) / cfg.ParaOut
	h := s.OutH // conv rows
	if s.FusedPool > 1 {
		h = s.OutH / s.FusedPool // tiles cover pooled rows
	}
	nTiles = (h + cfg.ParaHeight - 1) / cfg.ParaHeight
	return
}

// worstWaitLayerByLayer is the paper's t1_layer: a request arriving at the
// start of the layer waits for the whole layer.
func worstWaitLayerByLayer(cfg accel.Config, s model.ConvSpec) uint64 {
	nIn, nOut, nTiles := groupsOf(cfg, s)
	return uint64(nTiles*nOut*nIn) * calcCycles(cfg, s)
}

// worstWaitVI is the paper's t1_VI: at worst one CalcBlob (the CALC chain
// over all input-channel groups) must finish before the boundary.
func worstWaitVI(cfg accel.Config, s model.ConvSpec) uint64 {
	nIn, _, _ := groupsOf(cfg, s)
	return uint64(nIn) * calcCycles(cfg, s)
}

// backupCyclesVI is t2 at the worst position: the finished out-channel
// groups of the current (pooled) tile are spilled.
func backupCyclesVI(cfg accel.Config, s model.ConvSpec) uint64 {
	h, w := s.OutH, s.OutW
	if s.FusedPool > 1 {
		h /= s.FusedPool
		w /= s.FusedPool
	}
	rows := min(cfg.ParaHeight, h)
	return cfg.XferCycles(uint32(s.OutC * rows * w))
}

// theoreticalRl evaluates Eq. (1): the worst-case latency of the VI method
// relative to the layer-by-layer method,
// R_l = (Para_out × Para_height) / (Ch_out × H).
func theoreticalRl(cfg accel.Config, s model.ConvSpec) float64 {
	return float64(cfg.ParaOut*cfg.ParaHeight) / float64(s.OutC*s.OutH)
}

// measuredRl evaluates the same ratio from the cycle model.
func measuredRl(cfg accel.Config, s model.ConvSpec) float64 {
	return float64(worstWaitVI(cfg, s)) / float64(worstWaitLayerByLayer(cfg, s))
}

// networkWaitStats holds per-conv-layer worst-case waits over a network.
type networkWaitStats struct {
	LayerName []string
	LayerVI   []uint64 // worst wait, cycles
	LayerLBL  []uint64
}

// worstWaits computes per-conv-layer worst waits for both methods.
func worstWaits(cfg accel.Config, g *model.Network) (networkWaitStats, error) {
	var st networkWaitStats
	specs, err := g.ConvSpecs()
	if err != nil {
		return st, err
	}
	for _, s := range specs {
		st.LayerName = append(st.LayerName, s.Name)
		st.LayerVI = append(st.LayerVI, worstWaitVI(cfg, s)+backupCyclesVI(cfg, s))
		st.LayerLBL = append(st.LayerLBL, worstWaitLayerByLayer(cfg, s))
	}
	if len(st.LayerName) == 0 {
		return st, fmt.Errorf("bench: network %q has no conv layers", g.Name)
	}
	return st, nil
}
