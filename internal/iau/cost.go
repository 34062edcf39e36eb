package iau

import (
	"inca/internal/accel"
	"inca/internal/cost"
	"inca/internal/isa"
)

// MethodCost is the IAU's modeled cost of preempting a slot with a given
// interrupt method, measured from the slot's current stream position. All
// figures are read from the program's cost table (internal/cost — the same
// cycle model WatchdogBound and the compiler's ResponseBound use), so the
// query is pure: calling it never advances time, draws faults, or touches
// engine state. It is an *estimate* — the victim may hit a rewritten-SAVE
// skip or an injected stall the model does not see — which is exactly why
// schedulers built on it can only change timing, never results.
type MethodCost struct {
	Method Policy
	cost.Preempt
}

// CostTable returns the cost table of p under this IAU's accelerator
// configuration, building it on the first query for the program. Plain
// execution never asks, so a run without cost queries builds none.
func (u *IAU) CostTable(p *isa.Program) *cost.Table {
	t := u.tables[p]
	if t == nil {
		if u.tables == nil {
			u.tables = make(map[*isa.Program]*cost.Table)
		}
		t = cost.NewTable(p, u.Cfg)
		u.tables[p] = t
	}
	return t
}

// PreemptCostAt prices parking a task that stands at stream position pc of
// the table's program with method m. It is the table's answer alone — no
// live register state — which is what a scheduler's decision table wants.
func PreemptCostAt(cfg accel.Config, t *cost.Table, pc int, m Policy) MethodCost {
	mc := MethodCost{Method: m}
	switch m {
	case PolicyVI:
		mc.Preempt = t.PreemptVI(pc)
	case PolicyLayerByLayer:
		mc.Preempt = t.PreemptLayer(pc)
	case PolicyCPULike:
		// Switch anywhere before completion, spilling and refilling every
		// on-chip cache.
		buf := uint64(cfg.TotalBufferBytes())
		mc.BackupCycles = cfg.XferCycles(uint32(buf))
		mc.RestoreCycles = mc.BackupCycles
		mc.BackupBytes = buf
		mc.Feasible = t.Prog.Instrs[pc].Op != isa.OpEnd
	default:
		mc.WaitCycles = t.Remaining(pc)
	}
	return mc
}

// inFlight returns the slot's task when it has a request in flight.
func (u *IAU) inFlight(slot int) *task {
	if slot < 0 || slot >= NumSlots {
		return nil
	}
	if t := u.slots[slot]; t.cur != nil && t.cur.Prog != nil {
		return t
	}
	return nil
}

// PreemptCostEstimate models what preempting the given slot with the given
// method would cost from its current stream position: the cost table's
// answer, refined by the one piece of live state the table cannot know — a
// Vir_SAVE the slot stands on whose bytes an earlier backup already stored
// transfers only the remainder. For a slot with no in-flight request every
// cost is zero and Feasible is false.
func (u *IAU) PreemptCostEstimate(slot int, m Policy) MethodCost {
	t := u.inFlight(slot)
	if t == nil {
		return MethodCost{Method: m}
	}
	mc := PreemptCostAt(u.Cfg, u.CostTable(t.cur.Prog), t.pc, m)
	if in := t.cur.Prog.Instrs[t.pc]; m == PolicyVI && in.Op == isa.OpVirSave && t.saveValid && t.saveID == in.SaveID {
		skip := min(t.saveBytes, in.Len)
		mc.BackupCycles = u.Cfg.XferCycles(in.Len - skip)
		mc.BackupBytes = uint64(in.Len - skip)
	}
	return mc
}

// RemainingModelCycles returns the modeled cycles the slot's in-flight
// request still needs to complete (a cost-table read); the second return is
// false when the slot has no in-flight request. This is the IAU-side
// "ground truth" estimator a scheduler can compare its learned estimates
// against.
func (u *IAU) RemainingModelCycles(slot int) (uint64, bool) {
	t := u.inFlight(slot)
	if t == nil {
		return 0, false
	}
	return u.CostTable(t.cur.Prog).Remaining(t.pc), true
}
