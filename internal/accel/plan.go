package accel

import (
	"sort"

	"inca/internal/isa"
)

// cycleModel is everything a stream's timing depends on besides the stream:
// the engine's hoisted constants and the IAU's virtual-fetch price. It keys
// a Plan.
type cycleModel struct {
	bpc       float64 // Cfg.BytesPerCycle()
	xferSetup uint64  // Cfg.XferSetupCycles
	creditCap uint64  // Cfg.XferCycles(PrefetchBytes)
	calcPipe  int     // Cfg.CalcPipeCycles
	fetch     uint64  // Cfg.FetchCycles
}

func modelOf(cfg Config) cycleModel {
	return cycleModel{
		bpc:       cfg.BytesPerCycle(),
		xferSetup: uint64(cfg.XferSetupCycles),
		creditCap: cfg.XferCycles(uint32(cfg.PrefetchBytes)),
		calcPipe:  cfg.CalcPipeCycles,
		fetch:     uint64(cfg.FetchCycles),
	}
}

// Plan is a program's uninterrupted timing-only IAU run from pc 0 with an
// empty pipeline, lowered once per program and cycle model and kept on the
// program (isa.Program.Plan), so every IAU and SoloReplay that runs it shares
// one (DESIGN.md §26).
type Plan struct {
	prog *isa.Program // the program lowered: a copy of it re-lowers
	m    cycleModel
	// at[i] is the run's state before instruction i, from 0 to the END
	// (len(prog.Instrs) for a stream without one).
	at []planPoint
	// MaxInstr is the largest price of a real instruction on the run.
	MaxInstr uint64
}

// planPoint is the run's state before one instruction.
type planPoint struct {
	cycles uint64 // elapsed: exec plus virtual fetches
	exec   uint64 // real instructions' cycles
	calc   uint64 // the engine's calc cycles (exec-calc is its xfer)
	hidden uint64 // the engine's hidden transfer cycles
	credit uint64 // the engine's prefetch credit
}

// planFor returns p's plan under m, lowering it on first use.
func planFor(m cycleModel, p *isa.Program) *Plan {
	if pl, ok := p.Plan.(*Plan); ok && pl.prog == p && pl.m == m {
		return pl
	}
	pl := &Plan{prog: p, m: m, at: make([]planPoint, 0, len(p.Instrs)+1)}
	// The replay is the IAU's own: real instructions cost their engine
	// cycles on a fresh engine (prefetch-hiding pipeline included), virtual
	// ones the fetch-and-discard cost, END stops the walk.
	e := Engine{cycleModel: m}
	var now, exec uint64
	for i := 0; ; i++ {
		pl.at = append(pl.at, planPoint{now, exec, e.calcCycles, e.hiddenCycles, e.credit})
		if i == len(p.Instrs) || p.Instrs[i].Op == isa.OpEnd {
			break
		}
		in := &p.Instrs[i]
		if in.Op.Virtual() {
			now += m.fetch
			continue
		}
		c, _ := e.ExecRef(nil, p, in, 0)
		now += c
		exec += c
		pl.MaxInstr = max(pl.MaxInstr, c)
	}
	p.Plan = pl
	return pl
}

// PlanFor returns p's plan under the engine's cycle model.
func (e *Engine) PlanFor(p *isa.Program) *Plan { return planFor(e.cycleModel, p) }

// Jump runs pl's program from pc on the plan instead of instruction by
// instruction. It stops before the first instruction whose completion would
// spend budget cycles, or at the END, and returns that position and the exec
// and fetch cycles the stretch took; the engine's cycle classes and prefetch
// credit end where stepping would have left them. It jumps only from a
// position the plan describes — the engine's credit equals the plan's there,
// as it does at once after a dispatch and a few instructions after a resume —
// and with no tracer attached; otherwise it returns pc and moves nothing.
func (e *Engine) Jump(pl *Plan, pc int, budget uint64) (to int, exec, fetch uint64) {
	end := len(pl.at) - 1
	if e.Trace != nil || pc >= end || e.credit != pl.at[pc].credit {
		return pc, 0, 0
	}
	from := &pl.at[pc]
	to = pc + sort.Search(end-pc, func(k int) bool { return pl.at[pc+1+k].cycles-from.cycles >= budget })
	dst := &pl.at[to]
	exec = dst.exec - from.exec
	calc := dst.calc - from.calc
	e.calcCycles += calc
	e.xferCycles += exec - calc
	e.hiddenCycles += dst.hidden - from.hidden
	e.credit = dst.credit
	return to, exec, dst.cycles - from.cycles - exec
}

// SoloReplay returns p's uninterrupted IAU completion cycle on a fresh
// engine of cfg, read from p's plan. A non-nil starts, of len(p.Instrs),
// also receives the cycle at which each instruction up to the END begins.
func SoloReplay(cfg Config, p *isa.Program, starts []uint64) uint64 {
	pl := planFor(modelOf(cfg), p)
	for i := range min(len(pl.at), len(starts)) {
		starts[i] = pl.at[i].cycles
	}
	return pl.at[len(pl.at)-1].cycles
}
