// Package cluster makes a set of interruptible engines one fault domain.
// An EngineCluster run drives N engines — each its own IAU, accelerator,
// watchdog, and fault injector — behind a dispatcher that admits a stream
// of inference tasks, places each on the least-loaded healthy engine of
// its priority, and keeps tasks alive when engines misbehave:
//
//   - a preempted task parked on a busy engine is stolen and resumed on an
//     idle one through the CRC-checked ResumeToken (bit-exact, including
//     mid-batch parks — the token's BatchIndex survives the move);
//   - a watchdog-killed task migrates to a healthy engine, resuming from
//     its salvaged last Vir_SAVE checkpoint when one is intact (the
//     destination re-verifies the CRC; a stale checkpoint degrades to the
//     detected restart-from-scratch path) and re-executing otherwise;
//   - an engine that kills K tasks in a row is quarantined and readmitted
//     only after an exponential-backoff probe completes on it;
//   - admission control bounds the dispatch backlog and sheds the
//     lowest-priority work first under overload, so high-priority tasks
//     degrade last.
//
// Determinism: the run is a pure function of (Config, tasks). Engines are
// always advanced in id order, the backlog is totally ordered by
// (priority, arrival, id), and per-engine fault streams derive from one
// master seed via fault.ChildSeed — two runs with the same inputs produce
// byte-identical Stats reports.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"inca/internal/accel"
	"inca/internal/fault"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/sched"
	"inca/internal/trace"
)

// Defaults for zero Config fields.
const (
	DefaultQuarantineAfter = 2
	DefaultMaxMigrations   = 3
	DefaultMaxQueue        = 64
	// slotDepth bounds tasks placed per (engine, priority slot): one in
	// flight plus one queued. Keeping IAU queues shallow leaves sheddable
	// work in the dispatcher's backlog, where admission control owns it.
	slotDepth = 2
	// maxBackoffShift caps the exponential probe backoff (64x the base
	// delay): a flapping engine waits longer each relapse, but never so
	// long that the run's makespan is dominated by one engine's penalty box.
	maxBackoffShift = 6
)

// ShedReason records why the dispatcher deliberately abandoned a task.
type ShedReason string

// Shed reasons. Every task the cluster does not complete carries exactly
// one of these — nothing is lost silently.
const (
	ShedOverload     ShedReason = "overload"            // backlog full, lowest priority evicted
	ShedInfeasible   ShedReason = "deadline-infeasible" // could not finish by its deadline even alone
	ShedRetries      ShedReason = "retries-exhausted"   // migration attempts exceeded MaxMigrations
	ShedStarved      ShedReason = "starved"             // no engine ever became placeable again
	ShedUnverifiable ShedReason = "unverifiable"        // stream failed static verification at admission
)

// Config parameterises a cluster run.
type Config struct {
	Engines int
	Accel   accel.Config
	Policy  iau.Policy

	// Seed is the master fault seed; engine i's injector draws from
	// fault.ChildSeed(Seed, i). With all rates zero no injector is armed.
	// HangRate and StallRate are per-executed-instruction probabilities
	// (fault.Injector site semantics; use HangRatePerAttempt to express a
	// whole-inference hang probability); BackupRate is per preemption.
	Seed       uint64
	HangRate   float64
	StallRate  float64
	BackupRate float64
	// WatchdogCycles bounds per-instruction cycles on every engine (0 =
	// derived from the task programs via iau.WatchdogBound).
	WatchdogCycles uint64

	// QuarantineAfter is K: consecutive watchdog kills on one engine before
	// it is quarantined (0 = DefaultQuarantineAfter).
	QuarantineAfter int
	// ProbeBackoff is the base readmission probe delay in cycles; each
	// re-quarantine doubles it (0 = 8x the watchdog bound).
	ProbeBackoff uint64
	// MaxMigrations bounds cluster-level placements per task: a task killed
	// on its MaxMigrations-th engine is shed (0 = DefaultMaxMigrations).
	MaxMigrations int
	// MaxQueue bounds the dispatch backlog (0 = DefaultMaxQueue).
	MaxQueue int
	// DeadlineCheck rejects tasks at admission whose deadline is shorter
	// than their uninterrupted solo runtime plus the worst preemption-
	// response bound (Program.ResponseBound) of any program in the run —
	// the task could land behind that victim and must wait for it to
	// reach an interrupt point and back up before running at all.
	DeadlineCheck bool

	// Predictive installs a per-engine sched.PolicyPredictive (restricted
	// to the VI method — cross-engine migration relies on DDR-resident VI
	// backups), and switches dispatcher placement from outstanding-count to
	// modeled-remaining-cycles: the same cost estimates that drive each
	// engine's preemption decisions also rank engines for new work.
	Predictive bool

	// Tracer, when non-nil, receives cluster-level marks — migrate,
	// quarantine, readmit, admit_reject — with the ENGINE id as the slot.
	// It is distinct from any per-engine IAU tracer (engine-local slots
	// would collide with engine ids).
	Tracer *trace.Tracer
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.QuarantineAfter <= 0 {
		out.QuarantineAfter = DefaultQuarantineAfter
	}
	if out.MaxMigrations <= 0 {
		out.MaxMigrations = DefaultMaxMigrations
	}
	if out.MaxQueue <= 0 {
		out.MaxQueue = DefaultMaxQueue
	}
	return out
}

// Task is one inference request offered to the cluster.
type Task struct {
	ID       int
	Name     string
	Priority int // IAU slot: 0 highest, iau.NumSlots-1 lowest
	Prog     *isa.Program
	Arena    []byte // nil for timing-only
	Arrival  uint64 // cycle the request reaches the dispatcher
	Deadline uint64 // relative deadline in cycles, 0 = none
}

// Outcome is one task's terminal record.
type Outcome struct {
	TaskID    int
	Name      string
	Completed bool
	Shed      ShedReason // set iff !Completed
	Engine    int        // engine that finished (or last held) the task
	DoneCycle uint64
	Latency   uint64 // arrival -> done, cycles (completed tasks)
	// Migrations counts cross-engine moves: preempt-steals plus
	// failure re-placements.
	Migrations int
	// Attempts counts cluster-level placements (1 = never re-placed).
	// Slot-level retry attempts live in sched.TaskStats.Attempts; the two
	// ledgers are deliberately separate.
	Attempts    int
	Salvaged    int  // resumes from a salvaged watchdog checkpoint
	DeadlineMet bool // meaningful only when the task had a deadline
}

// Health is an engine's admission state.
type Health int

// Engine health states.
const (
	Healthy Health = iota
	Quarantined
	Probing
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Quarantined:
		return "quarantined"
	case Probing:
		return "probing"
	default:
		return fmt.Sprintf("Health(%d)", int(h))
	}
}

// engine is one cluster member.
type engine struct {
	id  int
	u   *iau.IAU
	inj *fault.Injector
	// pred is the engine's predictive scheduler (Config.Predictive only);
	// the dispatcher re-binds slots as tasks land on the engine.
	pred *sched.PolicyPredictive

	health       Health
	consecFails  int
	backoffLevel int
	canary       *iau.Request // probe task in flight while Probing

	outstanding int // tasks placed and not yet completed/failed off
	slotLoad    [iau.NumSlots]int

	stats EngineStats
}

// taskState tracks one admitted task through its placements.
type taskState struct {
	task    *Task
	req     *iau.Request
	engine  int // current placement
	outcome *Outcome
}

// event is a dispatcher wake-up: a task arrival or a quarantine probe.
type event struct {
	cycle uint64
	seq   int
	// task != nil: arrival; otherwise probe for engine `engine`.
	task   *taskState
	engine int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// failRec is one watchdog kill recorded during an engine Run, processed
// at top level (outside any IAU callback) so migrations never re-enter a
// running engine.
type failRec struct {
	engine    int
	comp      iau.Completion
	cycle     uint64
	wasCanary bool
}

// Cluster is the run state. Construct with Run; it is not reusable.
type cluster struct {
	cfg     Config
	engines []*engine
	taskOf  map[*iau.Request]*taskState // lookup only, never iterated

	backlog []*taskState // sorted by (priority, arrival, id)
	events  eventHeap
	seq     int
	now     uint64

	pendingFails []failRec
	migErr       error // deferred error from a callback-context migration
	outcomes     []Outcome
	deadlines    []uint64 // task deadlines by id, for final SLA accounting
	stats        Stats

	checked map[*isa.Program]error // cached static-verification verdicts

	// worstYield is the largest compiler-proven ResponseBound across the
	// run's programs: the longest any admitted task can wait for a running
	// lower-priority inference to reach an interrupt point and back up.
	// Admission adds it to the solo estimate so a deadline is only accepted
	// when it survives the worst preemption-response delay the mix can
	// inflict. Zero when no program carries a modeled bound.
	worstYield uint64
}

// Result is a finished cluster run.
type Result struct {
	// Outcomes holds one terminal record per task, indexed by Task.ID.
	Outcomes []Outcome
	Stats    Stats
}

// SoloCycles returns a program's uninterrupted runtime on cfg (timing-only
// replay, no arena) — the feasibility estimate admission control uses. It
// reads the program's plan, so only the first call per program pays for it.
func SoloCycles(cfg accel.Config, p *isa.Program) uint64 {
	return accel.SoloReplay(cfg, p, nil)
}

// HangRatePerAttempt converts a per-inference hang probability q ("5% of
// attempts hang") into the per-executed-instruction rate Config.HangRate
// wants, using the mean executable instruction count of the given programs.
// The injector draws SiteHang once per executed instruction, so a naive 5%
// per-instruction rate would hang essentially every multi-hundred-
// instruction inference.
func HangRatePerAttempt(progs []*isa.Program, q float64) float64 {
	if q <= 0 || len(progs) == 0 {
		return 0
	}
	if q >= 1 {
		return 1
	}
	var n float64
	for _, p := range progs {
		for _, in := range p.Instrs {
			if !in.Op.Virtual() && in.Op != isa.OpEnd {
				n++
			}
		}
	}
	n /= float64(len(progs))
	if n < 1 {
		n = 1
	}
	return 1 - math.Pow(1-q, 1/n)
}

// Run executes the task stream on the cluster and returns every task's
// terminal outcome plus aggregate statistics. Tasks must have unique IDs
// in [0, len(tasks)); they may arrive in any order.
func Run(cfg Config, tasks []Task) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Engines <= 0 {
		return nil, fmt.Errorf("cluster: need at least one engine, got %d", cfg.Engines)
	}
	if err := cfg.Accel.Validate(); err != nil {
		return nil, err
	}
	// The outcome and deadline ledgers are id-indexed: a shared id would
	// silently merge two tasks' records.
	seen := make([]bool, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		if t.ID < 0 || t.ID >= len(tasks) {
			return nil, fmt.Errorf("cluster: task %q id %d out of [0,%d)", t.Name, t.ID, len(tasks))
		}
		if seen[t.ID] {
			first := 0
			for tasks[first].ID != t.ID {
				first++
			}
			return nil, fmt.Errorf("cluster: tasks %q and %q share id %d", tasks[first].Name, t.Name, t.ID)
		}
		seen[t.ID] = true
		if t.Prog == nil {
			return nil, fmt.Errorf("cluster: task %q has no program", t.Name)
		}
		if t.Priority < 0 || t.Priority >= iau.NumSlots {
			return nil, fmt.Errorf("cluster: task %q priority %d out of [0,%d)", t.Name, t.Priority, iau.NumSlots)
		}
	}

	c := &cluster{
		cfg:     cfg,
		taskOf:  make(map[*iau.Request]*taskState),
		checked: make(map[*isa.Program]error),
	}
	c.outcomes = make([]Outcome, len(tasks))
	c.deadlines = make([]uint64, len(tasks))
	for i := range tasks {
		c.deadlines[tasks[i].ID] = tasks[i].Deadline
		// Only verified streams contribute to worstYield: an unverifiable
		// program (admission will shed it) must not poison the admission
		// arithmetic of everyone else with a forged ResponseBound.
		if c.verifyProg(tasks[i].Prog) != nil {
			continue
		}
		if b := tasks[i].Prog.ResponseBound; b > c.worstYield {
			c.worstYield = b
		}
	}

	watchdog := cfg.WatchdogCycles
	if watchdog == 0 {
		progs := make([]*isa.Program, 0, len(tasks))
		for i := range tasks {
			progs = append(progs, tasks[i].Prog)
		}
		watchdog = iau.WatchdogBound(cfg.Accel, progs...)
	}
	if cfg.ProbeBackoff == 0 {
		c.cfg.ProbeBackoff = 8 * watchdog
	}

	faulty := cfg.HangRate > 0 || cfg.StallRate > 0 || cfg.BackupRate > 0
	for i := 0; i < cfg.Engines; i++ {
		e := &engine{id: i, u: iau.New(cfg.Accel, cfg.Policy)}
		e.stats.ID = i
		e.u.WatchdogCycles = watchdog
		if cfg.Predictive {
			e.pred = sched.NewPredictive(cfg.Accel, sched.WithMethods(iau.PolicyVI))
			e.u.Sched = e.pred
		}
		if faulty {
			inj := fault.New(fault.ChildSeed(cfg.Seed, uint64(i)))
			inj.SetRate(fault.SiteHang, cfg.HangRate)
			inj.SetRate(fault.SiteStall, cfg.StallRate)
			inj.SetRate(fault.SiteBackup, cfg.BackupRate)
			e.inj = inj
			e.u.Faults = inj
		}
		c.engines = append(c.engines, e)
		c.installCallbacks(e)
		cfg.Tracer.SetTaskLabel(i, fmt.Sprintf("engine%d", i))
	}
	defer func() {
		for _, e := range c.engines {
			e.u.Eng.Close()
		}
	}()

	// Admit every task as an arrival event.
	for i := range tasks {
		t := &tasks[i]
		ts := &taskState{task: t, outcome: &c.outcomes[t.ID]}
		ts.outcome.TaskID = t.ID
		ts.outcome.Name = t.Name
		c.push(event{cycle: t.Arrival, task: ts})
	}

	if err := c.loop(); err != nil {
		return nil, err
	}
	c.finishStats()
	return &Result{Outcomes: c.outcomes, Stats: c.stats}, nil
}

func (c *cluster) push(e event) {
	c.seq++
	e.seq = c.seq
	c.events = append(c.events, e)
	// The heap is small (arrivals + probes); re-sorting keeps the
	// total order explicit and trivially deterministic.
	sort.Sort(c.events)
}

func (c *cluster) pop() event {
	e := c.events[0]
	c.events = c.events[1:]
	return e
}

// loop is the dispatcher: process timed events in order, advancing every
// engine (in id order) to each event's cycle, then drain to quiescence.
func (c *cluster) loop() error {
	for {
		if len(c.events) > 0 {
			ev := c.pop()
			if err := c.advanceAll(ev.cycle); err != nil {
				return err
			}
			if ev.task != nil {
				c.admit(ev.task, ev.cycle)
			} else {
				c.probe(ev.engine, ev.cycle)
			}
			if err := c.tryPlace(ev.cycle); err != nil {
				return err
			}
			continue
		}
		progress, err := c.drainAll()
		if err != nil {
			return err
		}
		if err := c.tryPlace(c.now); err != nil {
			return err
		}
		if progress || len(c.events) > 0 || c.anyPending() {
			continue
		}
		// No events, no engine progress: anything left in the backlog can
		// never be placed (every engine permanently quarantined with no
		// probe pending, which a completed probe cycle can produce when the
		// canary itself was shed). Shed it with a recorded reason.
		for len(c.backlog) > 0 {
			ts := c.backlog[len(c.backlog)-1]
			c.backlog = c.backlog[:len(c.backlog)-1]
			c.shed(ts, ShedStarved, c.now, 0)
		}
		return nil
	}
}

// advanceAll brings every engine to the given cycle, processing recorded
// failures after each engine's Run so migrations happen at top level.
func (c *cluster) advanceAll(cycle uint64) error {
	if cycle < c.now {
		cycle = c.now
	}
	for _, e := range c.engines {
		if err := e.u.Run(cycle); err != nil {
			return err
		}
		if e.u.Now > c.now {
			c.now = e.u.Now
		}
		if err := c.processFails(); err != nil {
			return err
		}
	}
	if cycle > c.now {
		c.now = cycle
	}
	return nil
}

// drainAll runs every engine toward quiescence once, reporting whether any
// clock advanced (a completion on one engine can unblock placements on
// another, so the caller loops).
func (c *cluster) drainAll() (bool, error) {
	progress := false
	for _, e := range c.engines {
		before := e.u.Now
		if err := e.u.Run(^uint64(0)); err != nil {
			return false, err
		}
		if e.u.Now != before {
			progress = true
		}
		if e.u.Now > c.now {
			c.now = e.u.Now
		}
		if err := c.processFails(); err != nil {
			return false, err
		}
	}
	return progress, nil
}

// anyPending reports whether any engine still holds runnable work.
func (c *cluster) anyPending() bool {
	for _, e := range c.engines {
		if e.u.Pending() {
			return true
		}
	}
	return false
}
