// Package iau simulates the Instruction Arrangement Unit — the hardware
// block INCA adds between instruction memory and the CNN accelerator
// (Fig. 3 of the paper). The IAU holds four task slots with static
// priorities (slot 0 highest, never preempted), fetches each task's VI-ISA
// stream, and feeds the accelerator plain original-ISA instructions:
//
//   - in normal flow virtual instructions are fetched and discarded (a
//     few cycles each — the source of the <0.3 % degradation);
//   - when a higher-priority request is pending, the IAU waits for the
//     next legal boundary, materialises the Vir_SAVE backup, switches
//     streams, and on resume materialises the Vir_LOAD_D restores;
//   - per-slot SaveID/SaveBytes registers track what a Vir_SAVE already
//     stored so the next original SAVE is rewritten to skip it (no
//     duplicate output transfer).
//
// The same runtime also implements the paper's two baselines: CPU-like
// (switch anywhere, spill/refill every on-chip cache) and layer-by-layer
// (switch only between layers).
package iau

import (
	"container/heap"
	"fmt"
	"hash/crc32"

	"inca/internal/accel"
	"inca/internal/cost"
	"inca/internal/fault"
	"inca/internal/isa"
	"inca/internal/trace"
)

// NumSlots is the number of priority task slots (paper: four).
const NumSlots = 4

// Policy selects the interrupt mechanism.
type Policy int

// Interrupt policies.
const (
	// PolicyNone runs every task to completion (native accelerator).
	PolicyNone Policy = iota
	// PolicyVI is the paper's virtual-instruction method.
	PolicyVI
	// PolicyLayerByLayer switches only at layer boundaries.
	PolicyLayerByLayer
	// PolicyCPULike switches at any instruction, spilling all on-chip caches.
	PolicyCPULike
)

func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyVI:
		return "virtual-instruction"
	case PolicyLayerByLayer:
		return "layer-by-layer"
	case PolicyCPULike:
		return "cpu-like"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// State is a task slot's scheduling state.
type State int

// Slot states.
const (
	Idle State = iota
	Ready
	Running
	Preempted
)

// Request is one execution of a program on a slot.
type Request struct {
	Label string
	Prog  *isa.Program
	Arena []byte // nil for timing-only

	// DropIfBusy discards the request at arrival when the slot already has
	// work queued or in flight (camera pipelines drop frames rather than
	// queueing them unboundedly).
	DropIfBusy bool

	// Filled by the runtime.
	SubmitCycle   uint64
	StartCycle    uint64
	DoneCycle     uint64
	ExecCycles    uint64 // accelerator-busy cycles spent on this request
	FetchCycles   uint64 // IAU overhead skipping virtual instructions
	Preemptions   int    // times this request was preempted
	InterruptCost uint64 // backup+restore cycles charged to this request

	// Fault/recovery accounting (all zero unless IAU.Faults is armed).
	StallCycles uint64 // extra cycles injected by stall faults
	Corrupted   int    // corrupt interrupt backups detected at restore
	Restarts    int    // re-executions from program start after detection
	Retries     int    // resubmissions after a watchdog kill (see Resubmit)
	Failed      bool   // true while the request sits killed, awaiting retry
}

// Completion is the record returned when a request finishes.
type Completion struct {
	Slot int
	Req  *Request

	// Salvage is set only on OnFail deliveries, and only when the killed
	// request had a committed checkpoint (its last materialised Vir_SAVE,
	// or its last layer boundary under layer-by-layer; see WatchdogCycles).
	// It is a restorable token: a dispatcher may ResumeSalvaged it on a
	// healthy IAU and the request resumes from the checkpoint instead of
	// re-executing from scratch.
	// The destination re-verifies the backup CRC at dispatch, so a
	// checkpoint whose arena span was dirtied after it was taken degrades
	// to the normal detected-restart path.
	Salvage *ResumeToken
}

// Preemption records one task switch forced by a higher-priority request.
type Preemption struct {
	Victim, Preemptor int
	// Method is the interrupt mechanism this particular switch used. Under
	// the static scheduler it always equals IAU.Policy; a Scheduler may pick
	// a different method per decision (PREMA-style), and the victim resumes
	// through the method it was parked with.
	Method          Policy
	RequestCycle    uint64 // preemptor became ready
	BoundaryCycle   uint64 // victim reached a legal switch point (t1 end)
	BackupDoneCycle uint64 // backup finished (t2 end) — latency = this - request
	BackupBytes     uint64
	ResumeCycles    uint64 // t4: restore cost paid when the victim resumed
	ResumeBytes     uint64
	Resumed         bool
	VictimPC        int    // victim stream position at the switch
	VictimLayer     string // victim layer executing when the request landed
}

// Latency returns the interrupt response latency (t1+t2) in cycles.
func (p *Preemption) Latency() uint64 { return p.BackupDoneCycle - p.RequestCycle }

// Cost returns the extra cycles the interrupt added (t2+t4).
func (p *Preemption) Cost() uint64 {
	return (p.BackupDoneCycle - p.BoundaryCycle) + p.ResumeCycles
}

type task struct {
	slot  int
	queue []*Request
	cur   *Request
	state State
	pc    int

	readySince uint64

	// SAVE-rewrite registers.
	saveValid bool
	saveID    uint32
	saveBytes uint32

	snapshot *accel.Snapshot // CPU-like backup
	lastPre  *Preemption     // record to charge resume cost to

	// parked is the interrupt method the slot's current backup was taken
	// with; resume replays that method's restore path even if a Scheduler
	// has since picked different methods for other switches.
	parked Policy
	// ckptPolicy is the method the salvage checkpoint was committed under.
	ckptPolicy Policy
	// fresh marks a slot dispatched by a Scheduler that has not yet executed
	// an instruction. The contention point skips fresh slots so every
	// scheduler decision is separated by at least one instruction of
	// progress — the termination guarantee under arbitrary policies.
	fresh bool

	// Backup integrity registers (armed only when IAU.Faults != nil).
	crcValid      bool
	backupCRC     uint32 // checksum of the parked backup blob
	bkLo, bkHi    int    // arena span the VI backup covers (CRC window)
	backupCorrupt bool   // metadata corruption for timing-only backups

	// Salvage checkpoint (armed only when IAU.WatchdogCycles is set):
	// the last committed resume point — the restore-group leader PC plus
	// the SAVE-rewrite and integrity registers as of that boundary. A
	// later watchdog kill republishes it as Completion.Salvage.
	ckptValid      bool
	ckptPC         int
	ckptSaveValid  bool
	ckptSaveID     uint32
	ckptSaveBytes  uint32
	ckptCRCValid   bool
	ckptCRC        uint32
	ckptLo, ckptHi int
}

type arrival struct {
	cycle uint64
	slot  int
	req   *Request
	seq   int
}

type arrivalHeap []arrival

func (h arrivalHeap) Len() int { return len(h) }
func (h arrivalHeap) Less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}
func (h arrivalHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x interface{}) { *h = append(*h, x.(arrival)) }
func (h *arrivalHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// FaultStats aggregates the IAU's fault detection and recovery activity.
// All fields stay zero unless Faults is armed (or WatchdogCycles trips on
// a genuinely oversized instruction).
type FaultStats struct {
	WatchdogKills     int    // hung slots killed and reset
	CorruptedRestores int    // corrupt backups detected at restore time
	Restarts          int    // victim re-executions after detection
	LostIRQs          int    // preemption boundaries missed to lost IRQs
	Stalls            int    // instruction stalls injected
	StallCycles       uint64 // total cycles those stalls cost
}

// Scheduler lets an external policy drive the IAU's task-switch decisions
// instead of the paper's static slot-priority rule. The IAU stays the
// mechanism owner: it still enforces boundary legality (canSwitch) for
// whatever method the scheduler picks, so a scheduler can change *when*
// and *how* switches happen but never make an illegal one. Any invalid
// answer (slot out of range, method the boundary does not allow) simply
// means "no switch here" — the IAU keeps executing the current task.
//
// Because every task owns its arena and every method's backup/restore
// pair is functionally lossless, scheduler decisions can affect timing
// only, never results; the verify fuzzer's PolicyPredictive axis proves
// this bit-exactly against the golden interpreter.
type Scheduler interface {
	// PickReady chooses which ready slot to dispatch when the accelerator
	// is free. ready is sorted ascending (static priority order); returning
	// a slot not in ready falls back to ready[0]. Here and in Contend, ready
	// is the IAU's own scratch buffer, valid only for the duration of the
	// call: a scheduler must not retain it.
	PickReady(u *IAU, ready []int) int
	// Contend is consulted at every instruction boundary while a task runs
	// and other slots have runnable work. Returning preempt=false keeps the
	// current task running; otherwise cand is the slot to switch to and
	// method the interrupt mechanism to park the victim with. The switch
	// only fires if the victim's next instruction is a legal boundary for
	// that method.
	Contend(u *IAU, running int, ready []int) (cand int, preempt bool, method Policy)
	// TaskDone is invoked on every completion (before OnComplete) so the
	// scheduler can refine its cost model from the request's measured
	// cycle counters.
	TaskDone(u *IAU, slot int, req *Request)
}

// IAU is the simulated instruction arrangement unit plus its accelerator.
type IAU struct {
	Cfg    accel.Config
	Policy Policy
	Eng    *accel.Engine

	Now uint64

	// Faults, when non-nil, arms deterministic fault injection at the IAU's
	// sites (backup bit-flips, instruction stalls/hangs, lost IRQs). Nil —
	// the default — keeps every hot path a single pointer comparison.
	Faults *fault.Injector
	// Sched, when non-nil, replaces the static slot-priority rule with an
	// external policy for dispatch and preemption decisions (see Scheduler).
	// Nil — the default — preserves the paper's static behavior exactly.
	Sched Scheduler
	// WatchdogCycles bounds the cycles any single instruction may take.
	// When an instruction exceeds it (an injected hang, or a genuinely
	// runaway transfer) the IAU charges the bound, kills the slot's request,
	// resets the slot, and reports the corpse through OnFail. Zero disables
	// the watchdog: a hung instruction is then a fatal simulation error.
	//
	// An armed watchdog also records each slot's last committed preemption
	// boundary (VI: the Vir_SAVE just materialised; LBL: the layer
	// boundary), so a kill can salvage the victim's progress as a
	// restorable Completion.Salvage token instead of forcing re-execution
	// from scratch. CPU-like backups are released at resume, so that policy
	// never salvages.
	WatchdogCycles uint64

	// OnComplete, when set, is invoked after every completion; it may submit
	// follow-up requests (closed-loop workloads such as continuous PR).
	OnComplete func(Completion)
	// OnDrop, when set, is invoked when a DropIfBusy request is discarded.
	OnDrop func(slot int, req *Request)
	// OnPreempt, when set, is invoked right after a preemption is recorded
	// (the victim is in the Preempted state); a multi-accelerator dispatcher
	// may steal the victim from here and resume it elsewhere.
	OnPreempt func(*Preemption)
	// OnFail, when set, receives every watchdog-killed request. The handler
	// may Resubmit the request (bounded retry) or shed it; the slot itself
	// is already reset and schedulable again.
	OnFail func(Completion, error)

	Completions []Completion
	Preemptions []*Preemption
	Fault       FaultStats

	// Tracer, when non-nil, receives the cycle-accurate event stream (spans
	// for every instruction class, marks for every scheduling action) that
	// feeds the Perfetto timeline, the metrics snapshot and sched.Gantt: the
	// IAU's only timeline. Attach it with AttachTracer so the engine shares
	// it. Nil — the default — costs one pointer comparison per site.
	Tracer *trace.Tracer

	BusyCycles uint64 // cycles the accelerator executed instructions
	IdleCycles uint64

	// tables caches one cost table per program queried (see CostTable).
	tables map[*isa.Program]*cost.Table

	slots    [NumSlots]*task
	ready    [NumSlots]int // readySlots' backing store
	arrivals arrivalHeap
	seq      int
	running  int // slot currently executing, or -1
	execs    int // execOne calls: the tests' view of how much a run stepped
}

// New creates an IAU for the given accelerator configuration and policy.
func New(cfg accel.Config, policy Policy) *IAU {
	u := &IAU{Cfg: cfg, Policy: policy, Eng: accel.NewEngine(cfg), running: -1}
	for i := range u.slots {
		u.slots[i] = &task{slot: i, state: Idle}
	}
	return u
}

// AttachTracer wires a cycle-accurate tracer into the IAU and its engine.
// Pass nil to detach. The IAU owns simulated time, so it keeps tr.Now
// current for the engine's clock-less emissions.
func (u *IAU) AttachTracer(tr *trace.Tracer) {
	u.Tracer = tr
	u.Eng.Trace = tr
}

// syncTrace publishes the current cycle to the shared tracer so engine
// emissions during the next Exec are timestamped correctly.
func (u *IAU) syncTrace() {
	if u.Tracer != nil {
		u.Tracer.Now = u.Now
	}
}

// Submit enqueues a request on a priority slot at the current cycle.
func (u *IAU) Submit(slot int, req *Request) error {
	return u.SubmitAt(slot, req, u.Now)
}

// SubmitAt enqueues a request that arrives at the given cycle (>= Now).
func (u *IAU) SubmitAt(slot int, req *Request, cycle uint64) error {
	if slot < 0 || slot >= NumSlots {
		return fmt.Errorf("iau: slot %d out of range [0,%d)", slot, NumSlots)
	}
	if req == nil || req.Prog == nil {
		return fmt.Errorf("iau: nil request/program")
	}
	if cycle < u.Now {
		return fmt.Errorf("iau: submission at cycle %d is in the past (now %d)", cycle, u.Now)
	}
	req.SubmitCycle = cycle
	u.seq++
	heap.Push(&u.arrivals, arrival{cycle: cycle, slot: slot, req: req, seq: u.seq})
	return nil
}

// Pending reports whether any work (queued, ready, or in flight) remains.
func (u *IAU) Pending() bool {
	if len(u.arrivals) > 0 {
		return true
	}
	for _, t := range u.slots {
		if t.state != Idle || len(t.queue) > 0 || t.cur != nil {
			return true
		}
	}
	return false
}

func (u *IAU) admit() {
	for len(u.arrivals) > 0 && u.arrivals[0].cycle <= u.Now {
		a := heap.Pop(&u.arrivals).(arrival)
		t := u.slots[a.slot]
		if a.req.DropIfBusy && (t.cur != nil || len(t.queue) > 0) {
			u.Tracer.Mark(trace.KindDrop, a.slot, a.cycle, 0, a.req.Label)
			if u.OnDrop != nil {
				u.OnDrop(a.slot, a.req)
			}
			continue
		}
		u.Tracer.Mark(trace.KindSubmit, a.slot, a.cycle, 0, a.req.Label)
		t.queue = append(t.queue, a.req)
		if t.state == Idle {
			t.state = Ready
			t.readySince = a.cycle
		}
	}
}

// bestReady returns the highest-priority slot with runnable work, or -1.
func (u *IAU) bestReady() int {
	for i, t := range u.slots {
		if t.state == Ready || t.state == Running || t.state == Preempted {
			return i
		}
	}
	return -1
}

// Run advances the simulation until no work remains or the horizon cycle is
// reached, whichever comes first. Arbitration (admit, dispatch, contend) runs
// only when a slot's state can change; in between, the running task executes
// a stretch of instructions back to back (DESIGN.md §21).
func (u *IAU) Run(horizon uint64) error {
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
		// Slot states now change only at an arrival, a completion or a kill
		// (the last two clear u.running, and every callback that can submit
		// fires from them). While the run is quiet — contend would answer
		// "no" unasked — the task runs on to the next arrival unarbitrated.
		// Static rule: the running slot is the best one. Scheduler: no other
		// slot is runnable, since Contend must see every boundary where one is.
		limit := horizon
		if len(u.arrivals) > 0 && u.arrivals[0].cycle < limit {
			limit = u.arrivals[0].cycle
		}
		quiet := best == u.running
		if u.Sched != nil {
			quiet = len(u.readySlots(u.running)) == 0
		}
		t := u.slots[u.running]
		for {
			if quiet {
				u.jump(t, limit)
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

// jump skips a quiet stretch ahead on the program's plan instead of stepping
// it (DESIGN.md §26): the task moves to the instruction whose completion
// reaches limit, or to its END, and the caller's execOne runs that one as
// usual. Only timing-only, untraced, fault-free stretches jump, from a
// position the plan describes (no pending SAVE rewrite, the plan's prefetch
// credit) and when no instruction on the plan could trip the watchdog.
func (u *IAU) jump(t *task, limit uint64) {
	if t.cur.Arena != nil || u.Tracer != nil || u.Faults != nil || t.saveValid {
		return
	}
	pl := u.Eng.PlanFor(t.cur.Prog)
	if u.WatchdogCycles > 0 && pl.MaxInstr > u.WatchdogCycles {
		return
	}
	to, exec, fetch := u.Eng.Jump(pl, t.pc, limit-u.Now)
	u.Now += exec + fetch
	u.BusyCycles += exec
	t.cur.ExecCycles += exec
	t.cur.FetchCycles += fetch
	t.pc = to
}

// readySlots returns the runnable slots (Ready or Preempted) in static
// priority order, excluding the given slot (-1 excludes none). The result
// aliases u.ready and is overwritten by the next call.
func (u *IAU) readySlots(exclude int) []int {
	out := u.ready[:0]
	for i, t := range u.slots {
		if i == exclude {
			continue
		}
		if t.state == Ready || t.state == Preempted {
			out = append(out, i)
		}
	}
	return out
}

func slotIn(s int, set []int) bool {
	for _, v := range set {
		if v == s {
			return true
		}
	}
	return false
}

// contend decides whether the running task should be preempted, by whom,
// and with which interrupt method. With no Scheduler attached it applies
// the paper's static rule: a strictly higher-priority slot preempts at the
// next boundary legal under the IAU's base policy. With a Scheduler, the
// policy proposes (victim is always the running slot, but it chooses the
// preemptor and the method) and the IAU disposes: illegal boundaries and
// invalid answers mean no switch.
func (u *IAU) contend(best int) (cand int, preempt bool, method Policy) {
	rt := u.slots[u.running]
	if u.Sched == nil {
		if best < u.running && u.canSwitch(rt, u.Policy) {
			return best, true, u.Policy
		}
		return 0, false, PolicyNone
	}
	if rt.fresh {
		// A scheduler-dispatched slot runs at least one instruction before
		// the next decision; otherwise a pathological policy could ping-pong
		// two slots forever without progress.
		return 0, false, PolicyNone
	}
	ready := u.readySlots(u.running)
	if len(ready) == 0 {
		return 0, false, PolicyNone
	}
	c, pre, m := u.Sched.Contend(u, u.running, ready)
	if !pre || !slotIn(c, ready) {
		return 0, false, PolicyNone
	}
	switch m {
	case PolicyVI, PolicyLayerByLayer, PolicyCPULike:
	default:
		return 0, false, PolicyNone
	}
	if !u.canSwitch(rt, m) {
		return 0, false, PolicyNone
	}
	return c, true, m
}

// RunAll drives the simulation to completion of all submitted work.
func (u *IAU) RunAll() error {
	for u.Pending() {
		if err := u.Run(^uint64(0)); err != nil {
			return err
		}
		if !u.Pending() {
			return nil
		}
	}
	return nil
}

// canSwitch reports whether the running task's next instruction is a legal
// switch boundary under the given interrupt method.
func (u *IAU) canSwitch(t *task, m Policy) bool {
	switch m {
	case PolicyCPULike:
		return true
	case PolicyVI:
		return t.cur.Prog.IsInterruptPoint(t.pc)
	case PolicyLayerByLayer:
		return t.cur.Prog.IsLayerBoundary(t.pc)
	default:
		return false
	}
}

// dispatch starts or resumes the given slot.
func (u *IAU) dispatch(slot int) error {
	t := u.slots[slot]
	switch t.state {
	case Ready:
		t.cur = t.queue[0]
		t.queue = t.queue[1:]
		t.pc = 0
		t.cur.StartCycle = u.Now
		t.saveValid = false
		t.ckptValid = false
		u.Eng.Invalidate()
		u.Tracer.Mark(trace.KindStart, slot, u.Now, 0, t.cur.Label)
	case Preempted:
		if u.restoreCorrupt(t) {
			// The backup blob failed its checksum: the parked state is
			// garbage. Detected, not trusted — discard it and re-execute the
			// request from its last committed boundary (the program start;
			// every intermediate output is rewritten deterministically, so
			// the final arena matches a fault-free run bit-for-bit).
			u.Fault.CorruptedRestores++
			u.Fault.Restarts++
			t.cur.Corrupted++
			t.cur.Restarts++
			u.restartVictim(t)
			u.Tracer.Mark(trace.KindRestart, slot, u.Now, 0, t.cur.Label)
		} else {
			// The resume mark lands before the restore transfers, so the
			// metrics' preempted-wait window excludes restore work (counted
			// separately as RestoreCycles).
			u.Tracer.Mark(trace.KindResume, slot, u.Now, 0, t.cur.Label)
			if err := u.resume(t); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("iau: dispatch of slot %d in state %d", slot, t.state)
	}
	t.state = Running
	t.fresh = true
	u.running = slot
	return nil
}

// restoreCorrupt verifies the slot's parked backup against the checksum
// recorded when the backup transfer completed. It consumes the integrity
// registers either way.
func (u *IAU) restoreCorrupt(t *task) bool {
	corrupt := t.backupCorrupt
	if t.crcValid {
		switch {
		case t.snapshot != nil:
			corrupt = corrupt || t.snapshot.Checksum() != t.backupCRC
		case t.cur.Arena != nil && t.bkHi > t.bkLo:
			crc := crc32.Checksum(t.cur.Arena[t.bkLo:t.bkHi], crcTable)
			corrupt = corrupt || crc != t.backupCRC
		}
	}
	t.crcValid = false
	t.backupCorrupt = false
	return corrupt
}

// restartVictim resets a slot whose backup was detected corrupt so its
// request re-executes from the beginning through the normal Ready path.
func (u *IAU) restartVictim(t *task) {
	if t.snapshot != nil {
		u.Eng.ReleaseSnapshot(t.snapshot)
		t.snapshot = nil
	}
	t.pc = 0
	t.saveValid = false
	t.ckptValid = false
	t.lastPre = nil
	u.Eng.Invalidate()
}

// resume pays the restore cost of the method the task was parked with and
// re-establishes on-chip state.
func (u *IAU) resume(t *task) error {
	switch t.parked {
	case PolicyCPULike:
		u.Eng.Restore(t.snapshot)
		// The snapshot's buffers go back to the engine's free list so the
		// next CPU-like backup reuses them instead of allocating.
		u.Eng.ReleaseSnapshot(t.snapshot)
		t.snapshot = nil
		c := u.Cfg.XferCycles(uint32(u.Cfg.TotalBufferBytes()))
		reg := u.Tracer.BeginAt(trace.KindRestore, t.slot, u.Now, uint64(u.Cfg.TotalBufferBytes()), "cache-refill")
		u.advance(t.cur, c)
		reg.EndAt(u.Now)
		t.cur.InterruptCost += c
		if t.lastPre != nil {
			t.lastPre.ResumeCycles += c
			t.lastPre.ResumeBytes += uint64(u.Cfg.TotalBufferBytes())
			t.lastPre.Resumed = true
		}
	case PolicyVI:
		u.Eng.Invalidate()
		ins := t.cur.Prog.Instrs
		for t.pc < len(ins) && ins[t.pc].Op == isa.OpVirLoadD {
			in := ins[t.pc]
			u.syncTrace()
			c, err := u.Eng.Exec(t.cur.Arena, t.cur.Prog, in, 0)
			if err != nil {
				return fmt.Errorf("iau: slot %d resume pc %d: %w", t.slot, t.pc, err)
			}
			reg := u.Tracer.BeginAt(trace.KindRestore, t.slot, u.Now, uint64(in.Len), "vir_load_d")
			u.advance(t.cur, c)
			reg.EndAt(u.Now)
			t.cur.InterruptCost += c
			if t.lastPre != nil {
				t.lastPre.ResumeCycles += c
				t.lastPre.ResumeBytes += uint64(in.Len)
			}
			t.pc++
		}
		if t.lastPre != nil {
			t.lastPre.Resumed = true
		}
	default:
		// Layer-by-layer: next layer reloads everything through its own
		// ordinary LOAD instructions; nothing to restore.
		u.Eng.Invalidate()
		if t.lastPre != nil {
			t.lastPre.Resumed = true
		}
	}
	return nil
}

// preempt switches from the running victim to the chosen preemptor,
// performing the given method's backup at the already-reached boundary.
func (u *IAU) preempt(victim, preemptor int, method Policy) error {
	vt := u.slots[victim]
	rec := &Preemption{
		Victim: victim, Preemptor: preemptor,
		Method:        method,
		RequestCycle:  u.slots[preemptor].readySince,
		BoundaryCycle: u.Now,
		VictimPC:      vt.pc,
	}
	if in := vt.cur.Prog.Instrs[vt.pc]; in.Op != isa.OpEnd {
		rec.VictimLayer = vt.cur.Prog.Layers[in.Layer].Name
	}
	switch method {
	case PolicyCPULike:
		vt.snapshot = u.Eng.Snapshot()
		c := u.Cfg.XferCycles(uint32(u.Cfg.TotalBufferBytes()))
		u.Tracer.Span(trace.KindBackup, victim, u.Now, c, uint64(u.Cfg.TotalBufferBytes()), "cache-spill")
		u.advance(vt.cur, c)
		vt.cur.InterruptCost += c
		rec.BackupBytes = uint64(u.Cfg.TotalBufferBytes())
		if u.Faults != nil {
			vt.backupCRC = vt.snapshot.Checksum()
			vt.crcValid = true
			if u.Faults.Hit(fault.SiteBackup) {
				bits := vt.snapshot.PayloadBits()
				if bits == 0 || !vt.snapshot.FlipBit(u.Faults.Pick(fault.SiteBackup, bits)) {
					vt.backupCorrupt = true // timing-only: corruption as metadata
				}
			}
		}
	case PolicyVI:
		// The boundary stops the MAC array; the backup transfer cannot hide
		// under compute.
		u.Eng.DrainPipeline()
		ins := vt.cur.Prog.Instrs
		if ins[vt.pc].Op == isa.OpVirSave {
			in := ins[vt.pc]
			var skip uint32
			if vt.saveValid && vt.saveID == in.SaveID {
				skip = vt.saveBytes
			}
			u.syncTrace()
			c, err := u.Eng.Exec(vt.cur.Arena, vt.cur.Prog, in, skip)
			if err != nil {
				return fmt.Errorf("iau: slot %d backup pc %d: %w", victim, vt.pc, err)
			}
			if skip > 0 {
				u.Tracer.Mark(trace.KindSaveRewrite, victim, u.Now, uint64(skip), vt.cur.Label)
			}
			u.Tracer.Span(trace.KindBackup, victim, u.Now, c, uint64(in.Len-skip), "vir_save")
			u.advance(vt.cur, c)
			vt.cur.InterruptCost += c
			rec.BackupBytes = uint64(in.Len - skip)
			vt.saveValid = true
			vt.saveID = in.SaveID
			vt.saveBytes = in.Len
			if u.Faults != nil || u.WatchdogCycles > 0 {
				u.armBackupCheck(vt, in)
			}
			vt.pc++ // resume at the following Vir_LOAD_D restores
		}
	case PolicyLayerByLayer:
		// No backup at a layer boundary.
	default:
		return fmt.Errorf("iau: policy %v cannot preempt", method)
	}
	vt.parked = method
	if u.WatchdogCycles > 0 && (method == PolicyVI || method == PolicyLayerByLayer) {
		// Commit the boundary just reached as the slot's salvage
		// checkpoint. The CRC registers were (re)armed pre-fault-draw, so a
		// backup bit-flip injected after the checksum is still detected if
		// this checkpoint is ever salvaged.
		vt.ckptValid = true
		vt.ckptPC = vt.pc
		vt.ckptPolicy = method
		vt.ckptSaveValid, vt.ckptSaveID, vt.ckptSaveBytes = vt.saveValid, vt.saveID, vt.saveBytes
		vt.ckptCRCValid, vt.ckptCRC = vt.crcValid, vt.backupCRC
		vt.ckptLo, vt.ckptHi = vt.bkLo, vt.bkHi
	}
	rec.BackupDoneCycle = u.Now
	vt.state = Preempted
	vt.cur.Preemptions++
	vt.lastPre = rec
	// Arg carries the backup bytes; the preempted-wait window opens here
	// (backup done) and closes at the matching resume mark.
	u.Tracer.Mark(trace.KindPreempt, victim, u.Now, rec.BackupBytes, vt.cur.Label)
	u.Preemptions = append(u.Preemptions, rec)
	u.Eng.Invalidate()
	u.running = -1
	if u.OnPreempt != nil {
		u.OnPreempt(rec)
	}
	return nil
}

// ResumeToken carries a preempted request's scheduling state so it can be
// resumed on a different IAU. This works because every interrupt policy's
// backup lands in DDR, which multi-accelerator MPSoC systems share: the
// paper's future-work direction (multi-core multi-tasking) gets task
// migration almost for free from the VI mechanism.
type ResumeToken struct {
	Req       *Request
	Policy    Policy
	pc        int
	saveValid bool
	saveID    uint32
	saveBytes uint32
	snapshot  *accel.Snapshot

	// Backup integrity state travels with the token: the destination IAU
	// verifies the checksum before resuming, so corruption during the DDR
	// round trip between accelerators is detected exactly like a local one.
	crcValid      bool
	backupCRC     uint32
	bkLo, bkHi    int
	backupCorrupt bool

	// consumed marks a token that already resumed somewhere; a second
	// InjectPreempted would fork the request, so it is rejected.
	consumed bool
}

// Registers is the architectural per-slot register view of Fig. 3: the
// instruction pointer, the SAVE-rewrite status registers, and the slot's
// scheduling state. Exposed for debugging and the inca-sim inspector.
type Registers struct {
	State      State
	Label      string // current request, "" when idle
	InstrAddr  int    // next instruction index in the task's stream
	SaveValid  bool
	SaveID     uint32
	SaveLength uint32
	QueueDepth int
}

// Registers returns the architectural state of one task slot.
func (u *IAU) Registers(slot int) Registers {
	if slot < 0 || slot >= NumSlots {
		return Registers{}
	}
	t := u.slots[slot]
	r := Registers{
		State:      t.state,
		InstrAddr:  t.pc,
		SaveValid:  t.saveValid,
		SaveID:     t.saveID,
		SaveLength: t.saveBytes,
		QueueDepth: len(t.queue),
	}
	if t.cur != nil {
		r.Label = t.cur.Label
	}
	return r
}

// ReadySince returns the cycle at which the slot last became runnable
// (Ready or Preempted); zero for idle slots. Schedulers use it as the
// waiting-time origin for token accrual.
func (u *IAU) ReadySince(slot int) uint64 {
	if slot < 0 || slot >= NumSlots {
		return 0
	}
	return u.slots[slot].readySince
}

// SlotRequest returns the request a slot would run next: its in-flight
// request if one exists, else the head of its queue, else nil.
func (u *IAU) SlotRequest(slot int) *Request {
	if slot < 0 || slot >= NumSlots {
		return nil
	}
	t := u.slots[slot]
	if t.cur != nil {
		return t.cur
	}
	if len(t.queue) > 0 {
		return t.queue[0]
	}
	return nil
}

// SlotPC returns the slot's stream position (the next instruction index),
// or -1 when the slot has no in-flight request. A scheduler's remaining-
// work estimate starts from here.
func (u *IAU) SlotPC(slot int) int {
	if slot < 0 || slot >= NumSlots {
		return -1
	}
	t := u.slots[slot]
	if t.cur == nil {
		return -1
	}
	return t.pc
}

// SlotFree reports whether a slot has no current request, an empty queue,
// and no submission waiting in the arrival heap (an InjectPreempted target).
func (u *IAU) SlotFree(slot int) bool {
	if slot < 0 || slot >= NumSlots {
		return false
	}
	t := u.slots[slot]
	return t.state == Idle && t.cur == nil && len(t.queue) == 0 && !u.slotHasArrivals(slot)
}

// slotHasArrivals reports whether any not-yet-admitted submission targets
// the slot.
func (u *IAU) slotHasArrivals(slot int) bool {
	for _, a := range u.arrivals {
		if a.slot == slot {
			return true
		}
	}
	return false
}

// PeekPreempted returns the slot's preempted request without removing it,
// or nil.
func (u *IAU) PeekPreempted(slot int) *Request {
	if slot < 0 || slot >= NumSlots {
		return nil
	}
	t := u.slots[slot]
	if t.state != Preempted {
		return nil
	}
	return t.cur
}

// StealPreempted removes the slot's preempted request and returns a token
// that InjectPreempted can install on another IAU of the same policy.
func (u *IAU) StealPreempted(slot int) (*ResumeToken, error) {
	if slot < 0 || slot >= NumSlots {
		return nil, fmt.Errorf("iau: slot %d out of range", slot)
	}
	t := u.slots[slot]
	if t.state != Preempted || t.cur == nil {
		return nil, fmt.Errorf("iau: slot %d has no preempted request to steal", slot)
	}
	tok := &ResumeToken{
		Req: t.cur, Policy: t.parked,
		pc: t.pc, saveValid: t.saveValid, saveID: t.saveID, saveBytes: t.saveBytes,
		snapshot: t.snapshot,
		crcValid: t.crcValid, backupCRC: t.backupCRC,
		bkLo: t.bkLo, bkHi: t.bkHi, backupCorrupt: t.backupCorrupt,
	}
	t.cur = nil
	t.snapshot = nil
	t.lastPre = nil
	t.saveValid = false
	t.crcValid = false
	t.backupCorrupt = false
	t.ckptValid = false
	if len(t.queue) > 0 {
		t.state = Ready
		t.readySince = u.Now
	} else {
		t.state = Idle
	}
	return tok, nil
}

// InjectPreempted installs a stolen request on an idle slot; it will resume
// through the policy's normal restore path (Vir_LOAD_D replays, snapshot
// refill) when the slot is dispatched.
func (u *IAU) InjectPreempted(slot int, tok *ResumeToken) error {
	if slot < 0 || slot >= NumSlots {
		return fmt.Errorf("iau: slot %d out of range", slot)
	}
	if tok == nil || tok.Req == nil {
		return fmt.Errorf("iau: nil resume token")
	}
	if tok.consumed {
		return fmt.Errorf("iau: resume token for %q already consumed (double resume would fork the request)", tok.Req.Label)
	}
	if tok.Policy != u.Policy && u.Sched == nil {
		// A Scheduler-driven IAU handles any parked method (resume follows
		// the token's method, not the base policy); a static IAU only
		// understands its own.
		return fmt.Errorf("iau: token from policy %v cannot resume under %v", tok.Policy, u.Policy)
	}
	t := u.slots[slot]
	if t.state != Idle || t.cur != nil || len(t.queue) > 0 || u.slotHasArrivals(slot) {
		return fmt.Errorf("iau: slot %d busy; cannot inject", slot)
	}
	t.cur = tok.Req
	t.pc = tok.pc
	t.parked = tok.Policy
	t.saveValid = tok.saveValid
	t.saveID = tok.saveID
	t.saveBytes = tok.saveBytes
	t.snapshot = tok.snapshot
	t.crcValid = tok.crcValid
	t.backupCRC = tok.backupCRC
	t.bkLo, t.bkHi = tok.bkLo, tok.bkHi
	t.backupCorrupt = tok.backupCorrupt
	if u.WatchdogCycles > 0 && (tok.Policy == PolicyVI || tok.Policy == PolicyLayerByLayer) {
		// The token is itself a committed checkpoint: re-arm it locally so
		// a post-migration watchdog kill can still salvage the request.
		t.ckptValid = true
		t.ckptPC = tok.pc
		t.ckptPolicy = tok.Policy
		t.ckptSaveValid, t.ckptSaveID, t.ckptSaveBytes = tok.saveValid, tok.saveID, tok.saveBytes
		t.ckptCRCValid, t.ckptCRC = tok.crcValid, tok.backupCRC
		t.ckptLo, t.ckptHi = tok.bkLo, tok.bkHi
	}
	t.state = Preempted
	t.readySince = u.Now
	tok.consumed = true
	return nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// armBackupCheck checksums the arena span a Vir_SAVE backup just wrote and
// draws the DDR bit-flip fault for it. Nothing else writes the victim's
// arena while it is parked (arenas are per-request), so a later checksum
// mismatch over the same span can only mean the backup corrupted in DDR.
func (u *IAU) armBackupCheck(vt *task, in isa.Instruction) {
	vt.crcValid = false
	if vt.cur.Arena != nil {
		lo, hi := u.backupSpan(vt.cur.Prog, in)
		if hi > lo && hi <= len(vt.cur.Arena) {
			vt.bkLo, vt.bkHi = lo, hi
			vt.backupCRC = crc32.Checksum(vt.cur.Arena[lo:hi], crcTable)
			vt.crcValid = true
		}
	}
	if u.Faults != nil && u.Faults.Hit(fault.SiteBackup) {
		if vt.crcValid {
			bit := u.Faults.Pick(fault.SiteBackup, uint64(vt.bkHi-vt.bkLo)*8)
			vt.cur.Arena[vt.bkLo+int(bit/8)] ^= 1 << (bit % 8)
		} else {
			vt.backupCorrupt = true // timing-only: corruption as metadata
		}
	}
}

// backupSpan returns the contiguous arena byte range covering a
// (Vir_)SAVE's output window: channels [InG*ParaOut, (OutG+1)*ParaOut) of
// rows [Row0, Row0+Rows) in the instruction's batch element's output plane.
// The per-channel writes are strided, so the span also contains untouched
// gap bytes — harmless, since the whole span is stable while the victim is
// parked.
func (u *IAU) backupSpan(p *isa.Program, in isa.Instruction) (lo, hi int) {
	l := &p.Layers[in.Layer]
	rows := int(in.Rows)
	if rows == 0 {
		return 0, 0
	}
	c0 := int(in.InG) * u.Cfg.ParaOut
	endC := (int(in.OutG) + 1) * u.Cfg.ParaOut
	if endC > l.OutC {
		endC = l.OutC
	}
	if endC <= c0 {
		return 0, 0
	}
	base := int(l.OutAddr) + int(in.Bat)*l.OutPlane()
	lo = base + (c0*l.OutH+int(in.Row0))*l.OutW
	hi = base + ((endC-1)*l.OutH+int(in.Row0))*l.OutW + rows*l.OutW
	return lo, hi
}

// execOne runs the next instruction of the running task.
func (u *IAU) execOne(t *task) error {
	u.execs++
	t.fresh = false
	in := &t.cur.Prog.Instrs[t.pc]
	if in.Op == isa.OpEnd {
		u.complete(t)
		return nil
	}
	if in.Op.Virtual() {
		// Discarded by the IAU: costs only the fetch.
		c := uint64(u.Cfg.FetchCycles)
		if u.Tracer != nil {
			u.Tracer.Span(trace.KindFetch, t.slot, u.Now, c, 0, in.Op.String())
		}
		u.Now += c
		t.cur.FetchCycles += c
		t.pc++
		return nil
	}
	var skip uint32
	if in.Op == isa.OpSave && t.saveValid && t.saveID == in.SaveID {
		skip = t.saveBytes
	}
	u.syncTrace()
	c, err := u.Eng.ExecRef(t.cur.Arena, t.cur.Prog, in, skip)
	if err != nil {
		return fmt.Errorf("iau: slot %d pc %d: %w", t.slot, t.pc, err)
	}
	if u.Faults != nil {
		if u.Faults.Hit(fault.SiteStall) {
			s := u.Faults.StallCycles
			u.Tracer.Span(trace.KindStall, t.slot, u.Now, s, 0, in.Op.String())
			u.Now += s
			t.cur.StallCycles += s
			u.Fault.Stalls++
			u.Fault.StallCycles += s
		}
		if u.Faults.Hit(fault.SiteHang) {
			// The instruction never completes; model as infinite cycles and
			// let the watchdog (or the error path) take over.
			c = ^uint64(0)
		}
	}
	if u.WatchdogCycles > 0 && c > u.WatchdogCycles {
		return u.watchdogKill(t)
	}
	if c == ^uint64(0) {
		return fmt.Errorf("iau: slot %d pc %d (%s): instruction hung with no watchdog armed", t.slot, t.pc, t.cur.Label)
	}
	if in.Op == isa.OpSave {
		t.saveValid = false
	}
	if u.Tracer != nil {
		kind := trace.KindCalc
		switch in.Op {
		case isa.OpLoadW, isa.OpLoadD, isa.OpSave:
			kind = trace.KindXfer
		}
		if skip > 0 {
			u.Tracer.Mark(trace.KindSaveRewrite, t.slot, u.Now, uint64(skip), t.cur.Label)
		}
		u.Tracer.Span(kind, t.slot, u.Now, c, uint64(skip), in.Op.String())
	}
	u.advance(t.cur, c)
	t.pc++
	return nil
}

// watchdogKill recovers a hung slot: the watchdog bound is charged as dead
// time, the request is failed out, and the slot is reset so queued (and
// retried) work can run. The corpse is reported through OnFail.
func (u *IAU) watchdogKill(t *task) error {
	u.Now += u.WatchdogCycles
	u.IdleCycles += u.WatchdogCycles // hung, not doing useful work
	req := t.cur
	req.Failed = true
	req.DoneCycle = u.Now
	u.Fault.WatchdogKills++
	u.Tracer.Mark(trace.KindKill, t.slot, u.Now, uint64(t.pc), req.Label)
	var salvage *ResumeToken
	if t.ckptValid {
		salvage = &ResumeToken{
			Req: req, Policy: t.ckptPolicy,
			pc: t.ckptPC, saveValid: t.ckptSaveValid, saveID: t.ckptSaveID, saveBytes: t.ckptSaveBytes,
			crcValid: t.ckptCRCValid, backupCRC: t.ckptCRC,
			bkLo: t.ckptLo, bkHi: t.ckptHi,
		}
	}
	if t.snapshot != nil {
		u.Eng.ReleaseSnapshot(t.snapshot)
		t.snapshot = nil
	}
	t.cur = nil
	t.saveValid = false
	t.lastPre = nil
	t.crcValid = false
	t.backupCorrupt = false
	t.ckptValid = false
	if len(t.queue) > 0 {
		t.state = Ready
		t.readySince = u.Now
	} else {
		t.state = Idle
	}
	u.running = -1
	u.Eng.Invalidate()
	if u.OnFail != nil {
		u.OnFail(Completion{Slot: t.slot, Req: req, Salvage: salvage},
			fmt.Errorf("iau: slot %d watchdog: %q exceeded %d cycles at pc %d", t.slot, req.Label, u.WatchdogCycles, t.pc))
	}
	return nil
}

// ResumeSalvaged installs a watchdog-salvage token (Completion.Salvage)
// on a free slot of this IAU: the failed flag is cleared, the retry is
// counted, and the request resumes from its salvaged checkpoint through
// the normal Preempted dispatch path. The checkpoint CRC is re-verified
// there, so a stale or corrupted checkpoint degrades to the detected
// restart-from-scratch path — never to silent corruption.
func (u *IAU) ResumeSalvaged(slot int, tok *ResumeToken) error {
	if tok == nil || tok.Req == nil {
		return fmt.Errorf("iau: nil salvage token")
	}
	if !tok.Req.Failed {
		return fmt.Errorf("iau: salvage resume of a request that has not failed")
	}
	if err := u.InjectPreempted(slot, tok); err != nil {
		return err
	}
	tok.Req.Failed = false
	tok.Req.Retries++
	return nil
}

// Resubmit re-enqueues a watchdog-killed request for a bounded retry. The
// original SubmitCycle is preserved so response latency (and deadline
// accounting) spans every attempt.
func (u *IAU) Resubmit(slot int, req *Request, cycle uint64) error {
	if req == nil || !req.Failed {
		return fmt.Errorf("iau: resubmit of a request that has not failed")
	}
	orig := req.SubmitCycle
	req.Failed = false
	req.Retries++
	if err := u.SubmitAt(slot, req, cycle); err != nil {
		req.Failed = true
		req.Retries--
		return err
	}
	req.SubmitCycle = orig
	return nil
}

// RetryFailed is the slot-level retry step for a watchdog-killed request:
// while the request has used fewer than maxRetries retries it is resubmitted
// on its slot after a linear backoff (retry k waits k backoffs past Now), and
// a KindRetry mark records the attempt index about to run (1 = the first
// execution) — distinct from cluster-level KindMigrate marks, whose arg is the
// destination engine. It reports whether the request was re-enqueued; when it
// was not, the caller owns shedding it.
func (u *IAU) RetryFailed(c Completion, maxRetries int, backoff uint64) bool {
	if c.Req.Retries >= maxRetries {
		return false
	}
	at := u.Now + uint64(c.Req.Retries+1)*backoff
	if err := u.Resubmit(c.Slot, c.Req, at); err != nil {
		return false
	}
	u.Tracer.Mark(trace.KindRetry, c.Slot, u.Now, uint64(c.Req.Retries+1), c.Req.Label)
	return true
}

// WatchdogBound returns a per-instruction cycle bound that no legitimate
// instruction of the given programs can exceed: twice the largest single
// modelled instruction cost (MAC burst or full-length transfer). Armed as
// IAU.WatchdogCycles it converts injected hangs into bounded-latency slot
// resets without ever killing healthy work.
func WatchdogBound(cfg accel.Config, progs ...*isa.Program) uint64 {
	var worst uint64
	// Serving callers pass one entry per task, most of them the same few
	// programs: price each stream once.
	seen := make(map[*isa.Program]bool)
	for _, p := range progs {
		if p == nil || seen[p] {
			continue
		}
		seen[p] = true
		worst = max(worst, cost.Summarize(p, cfg).MaxInstr)
	}
	if worst == 0 {
		worst = 1
	}
	return 2 * worst
}

func (u *IAU) advance(req *Request, cycles uint64) {
	u.Now += cycles
	u.BusyCycles += cycles
	req.ExecCycles += cycles
}

func (u *IAU) complete(t *task) {
	t.cur.DoneCycle = u.Now
	u.Tracer.Mark(trace.KindComplete, t.slot, u.Now, u.Now-t.cur.SubmitCycle, t.cur.Label)
	comp := Completion{Slot: t.slot, Req: t.cur}
	u.Completions = append(u.Completions, comp)
	if u.Sched != nil {
		u.Sched.TaskDone(u, t.slot, t.cur)
	}
	t.cur = nil
	t.saveValid = false
	t.lastPre = nil
	t.crcValid = false
	t.backupCorrupt = false
	t.ckptValid = false
	if len(t.queue) > 0 {
		t.state = Ready
		t.readySince = u.Now
	} else {
		t.state = Idle
	}
	u.running = -1
	u.Eng.Invalidate()
	if u.OnComplete != nil {
		u.OnComplete(comp)
	}
}
