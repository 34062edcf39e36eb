package cluster

import (
	"sort"

	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/progcheck"
	"inca/internal/trace"
)

// installCallbacks wires one engine's IAU into the dispatcher. Completion
// and preemption are handled inline (the IAU callback contract allows
// submitting to and running OTHER engines from a callback); watchdog
// failures are only recorded here and processed at top level by
// processFails, because the salvage-migration path may need to advance the
// destination engine's clock.
func (c *cluster) installCallbacks(e *engine) {
	e.u.OnComplete = func(comp iau.Completion) {
		ts := c.taskOf[comp.Req]
		if ts == nil {
			return
		}
		delete(c.taskOf, comp.Req)
		e.outstanding--
		e.slotLoad[comp.Slot]--
		e.consecFails = 0
		e.stats.Completed++
		o := ts.outcome
		o.Completed = true
		o.Engine = e.id
		o.DoneCycle = comp.Req.DoneCycle
		o.Latency = comp.Req.DoneCycle - ts.task.Arrival
		if ts.task.Deadline > 0 {
			o.DeadlineMet = o.Latency <= ts.task.Deadline
		}
		if comp.Req == e.canary {
			e.canary = nil
		}
		if e.health != Healthy {
			// Any completion is proof of life: readmit. The backoff level is
			// kept, so a flapping engine waits longer each time it relapses.
			e.health = Healthy
			e.stats.Readmits++
			c.stats.Readmits++
			c.cfg.Tracer.Mark(trace.KindReadmit, e.id, comp.Req.DoneCycle, uint64(e.backoffLevel), ts.task.Name)
		}
	}

	e.u.OnPreempt = func(p *iau.Preemption) {
		// Work-shifting migration: a parked victim whose priority slot is
		// free on another healthy engine moves there instead of waiting out
		// its preemptor.
		if err := c.migrateParked(e, p.Victim, p.BackupDoneCycle); err != nil {
			c.migErr = err
		}
	}

	e.u.OnFail = func(comp iau.Completion, _ error) {
		e.stats.Kills++
		c.stats.WatchdogKills++
		c.pendingFails = append(c.pendingFails, failRec{
			engine: e.id, comp: comp, cycle: e.u.Now,
			wasCanary: comp.Req == e.canary,
		})
	}
}

// bindPred (re)binds a slot on the engine's predictive scheduler when one
// is installed, warm-seeding the estimate from the task's compiled stream
// so the cost model is live from the first decision after a placement or
// migration.
func (e *engine) bindPred(slot int, t *Task) {
	if e.pred == nil {
		return
	}
	e.pred.Bind(slot, t.Prog, t.Deadline, false)
}

// moveTask updates placement bookkeeping when a task changes engines.
func (c *cluster) moveTask(ts *taskState, from, to *engine, slot int) {
	from.outstanding--
	from.slotLoad[slot]--
	to.outstanding++
	to.slotLoad[slot]++
	ts.engine = to.id
}

// migrateParked moves the preempted request parked on e's slot to a healthy
// engine whose matching slot is entirely free, if there is one. Its backup
// lives in shared DDR, so the CRC-checked token resumes bit-exactly —
// mid-batch parks included. The destination's clock is brought up to cycle
// first, so the migrated task cannot time-travel, and the slot is checked
// again afterwards: work finishing inside that advance can get it refilled,
// and once the victim is stolen its inject must not be refusable (the source
// slot may already have moved on, so there is no way back).
func (c *cluster) migrateParked(e *engine, slot int, cycle uint64) error {
	req := e.u.PeekPreempted(slot)
	if req == nil {
		return nil
	}
	ts := c.taskOf[req]
	if ts == nil {
		return nil
	}
	dst := c.pickFreeSlot(slot, e.id)
	if dst == nil {
		return nil
	}
	if err := dst.u.Run(cycle); err != nil {
		return err
	}
	if !dst.slotFree(slot) {
		return nil // filled while its clock advanced: the victim stays parked
	}
	tok, err := e.u.StealPreempted(slot)
	if err != nil {
		return nil
	}
	if err := dst.u.InjectPreempted(slot, tok); err != nil {
		return err
	}
	c.moveTask(ts, e, dst, slot)
	dst.bindPred(slot, ts.task)
	ts.outcome.Migrations++
	c.stats.Migrations++
	e.stats.MigratedOut++
	c.cfg.Tracer.Mark(trace.KindMigrate, e.id, cycle, uint64(dst.id), ts.task.Name)
	return nil
}

// processFails handles watchdog kills recorded during engine Runs: engine
// health escalation, then cross-engine migration of the dead task (salvage
// resume when the checkpoint survived, re-execution otherwise), bounded by
// MaxMigrations before the task is shed.
func (c *cluster) processFails() error {
	for len(c.pendingFails) > 0 {
		f := c.pendingFails[0]
		c.pendingFails = c.pendingFails[1:]
		e := c.engines[f.engine]
		ts := c.taskOf[f.comp.Req]
		if ts == nil {
			continue
		}
		delete(c.taskOf, f.comp.Req)
		e.outstanding--
		e.slotLoad[f.comp.Slot]--
		if f.wasCanary {
			e.canary = nil
		}

		// Health escalation: K consecutive kills — or any canary kill while
		// probing — quarantines the engine with doubled probe backoff.
		e.consecFails++
		if e.health == Probing && f.wasCanary {
			c.quarantine(e, f.cycle)
		} else if e.health == Healthy && e.consecFails >= c.cfg.QuarantineAfter {
			c.quarantine(e, f.cycle)
		}

		// Migration: re-place the dead task on the best healthy engine.
		if ts.outcome.Attempts >= c.cfg.MaxMigrations {
			c.shed(ts, ShedRetries, f.cycle, f.engine)
			continue
		}
		target := c.pickEngine(ts.task.Priority, f.engine)
		if target == nil {
			// Nowhere to go right now: back to the dispatcher backlog; a
			// later completion, readmission, or probe will re-place it.
			// The request stays Failed until then.
			c.enqueue(ts)
			continue
		}
		if err := c.replace(ts, target, f, f.cycle); err != nil {
			return err
		}
	}
	if c.migErr != nil {
		err := c.migErr
		c.migErr = nil
		return err
	}
	return nil
}

// replace places a failed task on the target engine: salvage-resume from
// the killed request's last checkpoint when it is intact and the slot is
// free, full resubmission otherwise.
func (c *cluster) replace(ts *taskState, target *engine, f failRec, cycle uint64) error {
	slot := ts.task.Priority
	// The target may lag the kill instant; advance it so the resumed task
	// cannot time-travel. Safe at top level (no engine is mid-Run here).
	if err := target.u.Run(cycle); err != nil {
		return err
	}
	if err := c.processFails(); err != nil { // the advance itself may kill
		return err
	}
	if c.taskOf[f.comp.Req] != nil || ts.outcome.Completed || ts.outcome.Shed != "" {
		return nil // resolved while the target advanced
	}
	salvaged := false
	if f.comp.Salvage != nil && target.u.SlotFree(slot) && target.slotLoad[slot] == 0 {
		if err := target.u.ResumeSalvaged(slot, f.comp.Salvage); err == nil {
			salvaged = true
			ts.outcome.Salvaged++
			c.stats.SalvageResumes++
		}
	}
	if !salvaged {
		at := cycle
		if at < target.u.Now {
			at = target.u.Now
		}
		if err := target.u.Resubmit(slot, f.comp.Req, at); err != nil {
			// Slot can still take a queued resubmission in almost every
			// state; a failure here means the request is in a shape we
			// cannot re-run — shed rather than lose it silently.
			c.shed(ts, ShedRetries, cycle, target.id)
			return nil
		}
	}
	c.taskOf[f.comp.Req] = ts
	target.outstanding++
	target.slotLoad[slot]++
	target.bindPred(slot, ts.task)
	ts.engine = target.id
	ts.outcome.Attempts++
	ts.outcome.Migrations++
	c.stats.Migrations++
	c.engines[f.engine].stats.MigratedOut++
	c.cfg.Tracer.Mark(trace.KindMigrate, f.engine, cycle, uint64(target.id), ts.task.Name)
	return nil
}

// quarantine takes an engine out of the placement pool and schedules its
// exponential-backoff readmission probe.
func (c *cluster) quarantine(e *engine, cycle uint64) {
	e.health = Quarantined
	e.canary = nil
	e.consecFails = 0
	e.backoffLevel++
	e.stats.Quarantines++
	c.stats.Quarantines++
	shift := e.backoffLevel - 1
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	delay := c.cfg.ProbeBackoff << uint(shift)
	c.cfg.Tracer.Mark(trace.KindQuarantine, e.id, cycle, uint64(e.backoffLevel), "")
	c.push(event{cycle: cycle + delay, engine: e.id})

	// Evacuate parked work: preempted tasks stranded on a quarantined
	// engine move to healthy engines with a free matching slot.
	for slot := 0; slot < iau.NumSlots; slot++ {
		if err := c.migrateParked(e, slot, cycle); err != nil {
			c.migErr = err
			return
		}
	}
}

// probe transitions a quarantined engine to Probing: it may take exactly
// one task (the canary); completing it readmits the engine, dying on it
// re-quarantines with doubled backoff.
func (c *cluster) probe(id int, _ uint64) {
	e := c.engines[id]
	if e.health != Quarantined {
		return
	}
	e.health = Probing
}

// estLoad is an engine's modeled remaining in-flight work: the sum of
// every slot's remaining cycles through the IAU's instruction cycle model.
// Under Config.Predictive this replaces the outstanding-task count as the
// placement metric — a near-finished ResNet weighs less than a
// freshly-started TinyCNN, whatever the task counts say.
func (c *cluster) estLoad(e *engine) uint64 {
	var total uint64
	for slot := 0; slot < iau.NumSlots; slot++ {
		if rem, ok := e.u.RemainingModelCycles(slot); ok {
			total += rem
		}
	}
	return total
}

// pickEngine returns the least-loaded engine that can accept a task of the
// given priority, preferring engines other than `avoid`. Load is the
// outstanding-task count, or modeled remaining cycles (outstanding count
// as tie-break) when the predictive dispatcher is on. Nil when none can.
func (c *cluster) pickEngine(slot, avoid int) *engine {
	var best *engine
	var bestLoad uint64
	pass := func(skipAvoid bool) {
		for _, e := range c.engines {
			if skipAvoid && e.id == avoid {
				continue
			}
			if !c.placeable(e, slot) {
				continue
			}
			if c.cfg.Predictive {
				l := c.estLoad(e)
				if best == nil || l < bestLoad || (l == bestLoad && e.outstanding < best.outstanding) {
					best, bestLoad = e, l
				}
			} else if best == nil || e.outstanding < best.outstanding {
				best = e
			}
		}
	}
	pass(true)
	if best == nil {
		// The failing engine itself is a last resort (single-engine
		// clusters must still retry locally).
		pass(false)
	}
	return best
}

// pickFreeSlot returns a healthy engine whose slot is entirely free (an
// InjectPreempted target), or nil.
func (c *cluster) pickFreeSlot(slot, avoid int) *engine {
	for _, e := range c.engines {
		if e.id != avoid && e.slotFree(slot) {
			return e
		}
	}
	return nil
}

// slotFree reports whether a healthy engine's slot holds nothing and has
// nothing placed on it: an InjectPreempted target.
func (e *engine) slotFree(slot int) bool {
	return e.health == Healthy && e.u.SlotFree(slot) && e.slotLoad[slot] == 0
}

// placeable reports whether an engine can take one more task on a slot.
func (c *cluster) placeable(e *engine, slot int) bool {
	switch e.health {
	case Healthy:
		return e.slotLoad[slot] < slotDepth
	case Probing:
		return e.canary == nil && e.slotLoad[slot] < 1
	default:
		return false
	}
}

// admit runs admission control on an arriving task: deadline feasibility
// first, then backlog bounding (shedding the lowest-priority entry, which
// may be the newcomer itself).
func (c *cluster) admit(ts *taskState, cycle uint64) {
	c.stats.Offered++
	// Static verification is the cluster's trust boundary: a stream that
	// fails progcheck (out-of-bounds transfers, malformed restore groups, a
	// ResponseBound the re-derivation refutes) is shed before it can touch
	// an engine or have its bound believed by the deadline math.
	if err := c.verifyProg(ts.task.Prog); err != nil {
		c.reject(ts, ShedUnverifiable, cycle)
		return
	}
	if c.cfg.DeadlineCheck && ts.task.Deadline > 0 {
		// Solo runtime plus the worst proven preemption-response bound in
		// the mix: even a top-priority arrival can wait that long for the
		// running victim to reach an interrupt point and back up.
		if SoloCycles(c.cfg.Accel, ts.task.Prog)+c.worstYield > ts.task.Deadline {
			c.reject(ts, ShedInfeasible, cycle)
			return
		}
	}
	c.enqueue(ts)
	if len(c.backlog) > c.cfg.MaxQueue {
		// Overload: evict the worst backlog entry — lowest priority,
		// then latest arrival. The sort order puts it last.
		victim := c.backlog[len(c.backlog)-1]
		c.backlog = c.backlog[:len(c.backlog)-1]
		c.reject(victim, ShedOverload, cycle)
	}
}

// enqueue inserts a task into the backlog, keeping the total order
// (priority, arrival, id).
func (c *cluster) enqueue(ts *taskState) {
	c.backlog = append(c.backlog, ts)
	sort.SliceStable(c.backlog, func(i, j int) bool {
		a, b := c.backlog[i].task, c.backlog[j].task
		if a.Priority != b.Priority {
			return a.Priority < b.Priority
		}
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		return a.ID < b.ID
	})
}

// reject sheds a task at admission with an admit_reject mark.
func (c *cluster) reject(ts *taskState, reason ShedReason, cycle uint64) {
	slot := 0
	if e := c.pickEngine(ts.task.Priority, -1); e != nil {
		slot = e.id
	}
	c.stats.AdmitRejects++
	c.cfg.Tracer.Mark(trace.KindAdmitReject, slot, cycle, uint64(ts.task.Priority), ts.task.Name)
	c.shed(ts, reason, cycle, slot)
}

// shed records a task's deliberate abandonment.
func (c *cluster) shed(ts *taskState, reason ShedReason, cycle uint64, engine int) {
	o := ts.outcome
	if o.Completed || o.Shed != "" {
		return
	}
	o.Shed = reason
	o.Engine = engine
	o.DoneCycle = cycle
	c.stats.Shed++
	switch reason {
	case ShedOverload:
		c.stats.ShedOverload++
	case ShedInfeasible:
		c.stats.ShedInfeasible++
	case ShedRetries:
		c.stats.ShedRetries++
	case ShedStarved:
		c.stats.ShedStarved++
	case ShedUnverifiable:
		c.stats.ShedUnverifiable++
	}
	c.cfg.Tracer.Mark(trace.KindShed, engine, cycle, uint64(ts.task.Priority), ts.task.Name)
}

// tryPlace drains the backlog onto placeable engines in priority order.
// Failed tasks re-entering from the backlog resubmit their existing
// request; fresh tasks get one.
func (c *cluster) tryPlace(cycle uint64) error {
	for i := 0; i < len(c.backlog); {
		ts := c.backlog[i]
		e := c.pickEngine(ts.task.Priority, -1)
		if e == nil {
			i++
			continue
		}
		c.backlog = append(c.backlog[:i], c.backlog[i+1:]...)
		if err := c.place(ts, e, cycle); err != nil {
			return err
		}
	}
	return nil
}

// place submits a task to an engine at the given decision cycle.
func (c *cluster) place(ts *taskState, e *engine, cycle uint64) error {
	slot := ts.task.Priority
	at := cycle
	if at < ts.task.Arrival {
		at = ts.task.Arrival
	}
	if at < e.u.Now {
		at = e.u.Now
	}
	if ts.req == nil {
		ts.req = &iau.Request{Label: ts.task.Name, Prog: ts.task.Prog, Arena: ts.task.Arena}
		if err := e.u.SubmitAt(slot, ts.req, at); err != nil {
			return err
		}
		// Latency spans from dispatcher arrival, not engine submission.
		ts.req.SubmitCycle = ts.task.Arrival
	} else {
		// A previously failed task coming back from the backlog.
		if err := e.u.Resubmit(slot, ts.req, at); err != nil {
			c.shed(ts, ShedRetries, cycle, e.id)
			return nil
		}
		ts.outcome.Migrations++
		c.stats.Migrations++
		c.cfg.Tracer.Mark(trace.KindMigrate, ts.engine, cycle, uint64(e.id), ts.task.Name)
	}
	c.taskOf[ts.req] = ts
	ts.engine = e.id
	ts.outcome.Attempts++
	e.outstanding++
	e.slotLoad[slot]++
	e.bindPred(slot, ts.task)
	if e.health == Probing {
		e.canary = ts.req
		e.stats.Probes++
	}
	return nil
}

// verifyProg statically verifies a program against the cluster's
// accelerator config (layout, restore groups, interrupt points, and the
// ResponseBound re-derivation), caching the verdict per program pointer —
// serving workloads reuse one program across many tasks.
func (c *cluster) verifyProg(p *isa.Program) error {
	if err, ok := c.checked[p]; ok {
		return err
	}
	err := progcheck.Check(p, c.cfg.Accel)
	c.checked[p] = err
	return err
}
