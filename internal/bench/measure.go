package bench

import (
	"fmt"
	"sort"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/cost"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
)

// The interrupt measurement harness that E1–E4, E7, E8, E10 and E12 are
// built on: inject one high-priority request into a running victim and read
// the IAU's preemption record; price that response exactly at every position
// from the victim's plan and cost-table sites; and Eq. (1) (§4.3), the
// paper's closed form the exact prices are checked against.

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
	// Preempted is false when the victim finished before a legal boundary was
	// reached (the request landed too close to the end of the program); the
	// latency is then the wait for its completion.
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

// measureAt runs the victim under the given policy and injects one
// high-priority request at reqCycle, returning the preemption metrics.
func measureAt(cfg accel.Config, policy iau.Policy, victim, preemptor *isa.Program, reqCycle uint64) (Measurement, error) {
	m := Measurement{Policy: policy, RequestCycle: reqCycle}
	u := iau.New(cfg, policy)
	if err := u.Submit(1, &iau.Request{Label: "victim", Prog: victim}); err != nil {
		return m, err
	}
	pr := &iau.Request{Label: "probe", Prog: preemptor}
	if err := u.SubmitAt(0, pr, reqCycle); err != nil {
		return m, err
	}
	if err := u.RunAll(); err != nil {
		return m, err
	}
	if len(u.Preemptions) == 0 {
		// No boundary was left: the probe waited for the victim to finish.
		m.LatencyCycles = pr.StartCycle - reqCycle
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

// --- Exact responses and Eq. (1) (§4.3) -----------------------------------

// responses is the exact interrupt response of a victim running alone, read
// from the simulator's own prices rather than a shape formula: the program's
// plan (accel.SoloReplay) says when each instruction starts, the cost table's
// sites (cost.Site) what parking at each interrupt point backs up, and
// isa.Program.IsLayerBoundary where the layer-by-layer method may switch. A
// request the IAU sees at the start of instruction pc is answered at the next
// legal boundary at or after pc (VI: the next site's leader, then its
// Vir_SAVE; layer-by-layer: the next layer boundary, free), or when the victim
// completes if none is left. measureAt's probes are the referee.
type responses struct {
	// starts[pc] is the plan cycle instruction pc starts at; the last entry,
	// the END's, is the solo completion time.
	starts []uint64
	// vi[pc] and lbl[pc] are the responses, in cycles, to a request arriving
	// at starts[pc]. A request at cycle 0 arrives with the victim and is
	// served first, so both are 0 at pc 0.
	vi, lbl []uint64
	end     int
}

// priceResponses prices a request at every instruction start of p, a
// compiled (END-terminated) stream, on cfg.
func priceResponses(cfg accel.Config, p *isa.Program) *responses {
	n := len(p.Instrs)
	r := &responses{starts: make([]uint64, n), vi: make([]uint64, n), lbl: make([]uint64, n), end: n - 1}
	accel.SoloReplay(cfg, p, r.starts)
	sites := cost.Summarize(p, cfg).Sites
	for pc, k := r.end-1, len(sites)-1; pc > 0; pc-- {
		d := r.starts[pc+1] - r.starts[pc]
		r.vi[pc], r.lbl[pc] = d+r.vi[pc+1], d+r.lbl[pc+1]
		if k >= 0 && sites[k].Leader == pc {
			r.vi[pc] = sites[k].Backup
			k--
		}
		if p.IsLayerBoundary(pc) {
			r.lbl[pc] = 0
		}
	}
	return r
}

// at returns the response in resp to a request arriving at cycle c, no later
// than the solo completion: the victim finishes the instruction in flight, so
// the IAU looks for a boundary at the next instruction start.
func (r *responses) at(resp []uint64, c uint64) uint64 {
	pc := sort.Search(r.end, func(i int) bool { return r.starts[i] >= c })
	return r.starts[pc] - c + resp[pc]
}

// worst returns the largest response in resp to a request arriving while
// instruction pc runs, and the arrival cycle it is reached at: the start of
// pc, or one cycle after it, when the IAU waits for pc to finish.
func (r *responses) worst(pc int, resp []uint64) (worst, arrival uint64) {
	if d := r.starts[pc+1] - r.starts[pc]; d > 1 && d-1+resp[pc+1] > resp[pc] {
		return d - 1 + resp[pc+1], r.starts[pc] + 1
	}
	return resp[pc], r.starts[pc]
}

// meanOverArrivals returns the exact mean response in resp over every arrival
// cycle of the solo run: an instruction of d cycles takes one arrival at its
// start and d-1 after it, each of which waits out the rest of the instruction
// and then the next start's response.
func (r *responses) meanOverArrivals(resp []uint64) float64 {
	var sum uint64
	for pc := range r.end {
		if d := r.starts[pc+1] - r.starts[pc]; d > 0 {
			sum += resp[pc] + (d-1)*resp[pc+1] + d*(d-1)/2
		}
	}
	return float64(sum) / float64(r.starts[r.end])
}

// layerWorsts holds each conv layer's worst response under both methods, in
// stream order.
type layerWorsts struct {
	Name    []string
	VI, LBL []uint64 // cycles
}

// convLayerWorsts returns every conv layer's worst VI and layer-by-layer
// response, the maximum over every arrival while one of its instructions
// runs.
func convLayerWorsts(cfg accel.Config, p *isa.Program) (layerWorsts, error) {
	var w layerWorsts
	r := priceResponses(cfg, p)
	for pc := range r.end {
		l := p.Instrs[pc].Layer
		if p.Layers[l].Op != isa.LayerConv {
			continue
		}
		if pc == 0 || p.Instrs[pc-1].Layer != l { // a layer's instructions are contiguous
			w.Name, w.VI, w.LBL = append(w.Name, p.Layers[l].Name), append(w.VI, 0), append(w.LBL, 0)
		}
		k := len(w.Name) - 1
		vi, _ := r.worst(pc, r.vi)
		lbl, _ := r.worst(pc, r.lbl)
		w.VI[k], w.LBL[k] = max(w.VI[k], vi), max(w.LBL[k], lbl)
	}
	if len(w.Name) == 0 {
		return w, fmt.Errorf("bench: program %q has no conv layers", p.Name)
	}
	return w, nil
}

// theoreticalRl evaluates Eq. (1) for a conv layer of outC channels and h
// output rows: the worst-case latency of the VI method relative to the
// layer-by-layer method, R_l = (Para_out × Para_height) / (Ch_out × H).
func theoreticalRl(cfg accel.Config, outC, h int) float64 {
	return float64(cfg.ParaOut*cfg.ParaHeight) / float64(outC*h)
}
