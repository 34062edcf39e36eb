package iau

import "inca/internal/fault"

// This file keeps the run loop Run had before it learned to arbitrate at
// events (DESIGN.md §21) as the referee of TestRunMatchesStepwise, plus two
// deliberately wrong stretches the same test must reject. Test-only: nothing
// here is compiled into the package proper.

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
			if err := u.execOne(t); err != nil {
				return err
			}
			if !quiet || u.running == -1 || u.Now >= limit {
				break
			}
		}
	}
}

// RunStepwise hands runStepwise to the oracle test, which lives in package
// iau_test so it can put sched.PolicyPredictive on the Scheduler axis (hence
// the exported names in this file; they exist in test builds only).
var RunStepwise = (*IAU).runStepwise
