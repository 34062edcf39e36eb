package iau

import (
	"reflect"
	"unsafe"

	"inca/internal/fault"
	"inca/internal/isa"
)

// This file keeps the run loop Run had before it learned to arbitrate at
// events (DESIGN.md §21) and to jump on a plan (§26) as the referee of
// TestRunMatchesStepwise, plus four deliberately wrong stretches the same test
// must reject. Test-only: nothing here is compiled into the package proper.

// runStepwise is the parent's loop, verbatim: admit, pick, contend and
// execute exactly one instruction per iteration.
func (u *IAU) runStepwise(horizon uint64) error {
	for {
		u.admit()
		if u.Now >= horizon {
			return nil
		}
		best := u.bestReady()
		if best == -1 {
			if len(u.arrivals) == 0 {
				return nil
			}
			next := u.arrivals[0].cycle
			if next > horizon {
				u.IdleCycles += horizon - u.Now
				u.Now = horizon
				return nil
			}
			u.IdleCycles += next - u.Now
			u.Now = next
			continue
		}
		if u.running == -1 {
			pick := best
			if u.Sched != nil {
				if ready := u.readySlots(-1); len(ready) > 1 {
					if s := u.Sched.PickReady(u, ready); slotIn(s, ready) {
						pick = s
					}
				}
			}
			if err := u.dispatch(pick); err != nil {
				return err
			}
			continue
		}
		if cand, pre, method := u.contend(best); pre {
			if u.Faults != nil && u.Faults.Hit(fault.SiteIRQLost) {
				// The preemption IRQ was lost at this boundary: the victim
				// runs one more instruction and the IAU retries at the next
				// legal boundary (bounded extra latency, no hang).
				u.Fault.LostIRQs++
				if err := u.execOne(u.slots[u.running]); err != nil {
					return err
				}
				continue
			}
			if err := u.preempt(u.running, cand, method); err != nil {
				return err
			}
			continue
		}
		if err := u.execOne(u.slots[u.running]); err != nil {
			return err
		}
	}
}

// StretchBreak selects a seeded mistake in RunBroken's stretch.
type StretchBreak int

const (
	// BreakNone leaves the stretch as Run has it: RunBroken must then pass
	// the oracle, which shows the copy is faithful and each failure below is
	// the seeded mistake's alone.
	BreakNone StretchBreak = iota
	// BreakIgnoreArrivals runs the stretch to the horizon, past arrivals[0].
	BreakIgnoreArrivals
	// BreakStaticQuiet applies the static rule's quiet condition ("the
	// running slot is the best one") under a Scheduler too, so a runnable
	// lower-priority slot no longer reaches Scheduler.Contend.
	BreakStaticQuiet
	// BreakJumpRunsCrossing lets a jump also run the instruction that
	// crosses the limit, so the stretch overshoots by one instruction.
	BreakJumpRunsCrossing
	// BreakJumpKeepsCredit leaves the engine's prefetch credit where it was
	// before a jump instead of taking the plan's.
	BreakJumpKeepsCredit
)

// RunBroken is a copy of Run whose stretch is wrong in the one way brk names.
func (u *IAU) RunBroken(horizon uint64, brk StretchBreak) error {
	for {
		u.admit()
		if u.Now >= horizon {
			return nil
		}
		best := u.bestReady()
		if best == -1 {
			if len(u.arrivals) == 0 {
				return nil
			}
			next := u.arrivals[0].cycle
			if next > horizon {
				u.IdleCycles += horizon - u.Now
				u.Now = horizon
				return nil
			}
			u.IdleCycles += next - u.Now
			u.Now = next
			continue
		}
		if u.running == -1 {
			pick := best
			if u.Sched != nil {
				if ready := u.readySlots(-1); len(ready) > 1 {
					if s := u.Sched.PickReady(u, ready); slotIn(s, ready) {
						pick = s
					}
				}
			}
			if err := u.dispatch(pick); err != nil {
				return err
			}
			continue
		}
		if cand, pre, method := u.contend(best); pre {
			if u.Faults != nil && u.Faults.Hit(fault.SiteIRQLost) {
				u.Fault.LostIRQs++
				if err := u.execOne(u.slots[u.running]); err != nil {
					return err
				}
				continue
			}
			if err := u.preempt(u.running, cand, method); err != nil {
				return err
			}
			continue
		}
		limit := horizon
		if brk != BreakIgnoreArrivals && len(u.arrivals) > 0 && u.arrivals[0].cycle < limit {
			limit = u.arrivals[0].cycle
		}
		quiet := best == u.running
		if brk != BreakStaticQuiet && u.Sched != nil {
			quiet = len(u.readySlots(u.running)) == 0
		}
		t := u.slots[u.running]
		for {
			if quiet {
				if err := u.brokenJump(t, limit, brk); err != nil {
					return err
				}
			}
			if err := u.execOne(t); err != nil {
				return err
			}
			if !quiet || u.running == -1 || u.Now >= limit {
				break
			}
		}
	}
}

// brokenJump is jump with brk's mistake, if brk names one of the jump's.
func (u *IAU) brokenJump(t *task, limit uint64, brk StretchBreak) error {
	pc := t.pc
	if brk != BreakJumpKeepsCredit {
		u.jump(t, limit)
		if brk == BreakJumpRunsCrossing && t.pc != pc && t.cur.Prog.Instrs[t.pc].Op != isa.OpEnd {
			return u.execOne(t)
		}
		return nil
	}
	// The credit is the engine's own: the break reaches it by reflection so
	// that accel exports nothing for it.
	credit := reflect.ValueOf(u.Eng).Elem().FieldByName("credit")
	before := credit.Uint()
	u.jump(t, limit)
	*(*uint64)(unsafe.Pointer(credit.UnsafeAddr())) = before
	return nil
}

// StretchState reports, for the running slot, whether its SAVE-rewrite
// register is set and whether the engine's prefetch credit is the plan's at
// its pc — the two conditions a jump needs from the task and the engine. It
// asks a copy of the engine to jump, so nothing moves.
func (u *IAU) StretchState() (saveValid, onPlan bool) {
	t := u.slots[u.running]
	e := *u.Eng
	to, _, _ := e.Jump(e.PlanFor(t.cur.Prog), t.pc, ^uint64(0))
	return t.saveValid, to != t.pc
}

// ExecCount reports how many instructions the IAU has run one at a time.
func (u *IAU) ExecCount() int { return u.execs }

// RunStepwise hands runStepwise to the oracle test, which lives in package
// iau_test so it can put sched.PolicyPredictive on the Scheduler axis (hence
// the exported names in this file; they exist in test builds only).
var RunStepwise = (*IAU).runStepwise
