// Package sched is the software runtime above the IAU: it turns task
// descriptions (periodic camera-driven inference, continuous best-effort
// inference) into timed accelerator requests, runs them under a chosen
// interrupt policy, and reports the scheduling metrics the paper's DSLAM
// evaluation uses — deadline misses, per-request latency, preemption counts,
// and the multi-tasking overhead (degradation) of the VI mechanism.
package sched

import (
	"fmt"
	"math"
	"sort"
	"time"

	"inca/internal/accel"
	"inca/internal/fault"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/trace"
)

// SpecError is a typed validation failure for one TaskSpec field.
type SpecError struct {
	Task   string
	Field  string
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("sched: task %q: %s %s", e.Task, e.Field, e.Reason)
}

// validateSpec rejects out-of-range TaskSpec fields before they can wedge
// a run (negative periods spin the arrival generator; bad slots would
// surface much later as an IAU submit error).
func validateSpec(sp *TaskSpec) error {
	if sp.Name == "" {
		return &SpecError{Task: sp.Name, Field: "Name", Reason: "is empty"}
	}
	if sp.Prog == nil {
		return &SpecError{Task: sp.Name, Field: "Prog", Reason: "is nil (no program)"}
	}
	if sp.Slot < 0 || sp.Slot >= iau.NumSlots {
		return &SpecError{Task: sp.Name, Field: "Slot",
			Reason: fmt.Sprintf("%d out of range [0,%d)", sp.Slot, iau.NumSlots)}
	}
	if sp.Period < 0 {
		return &SpecError{Task: sp.Name, Field: "Period", Reason: fmt.Sprintf("%v is negative", sp.Period)}
	}
	if sp.Deadline < 0 {
		return &SpecError{Task: sp.Name, Field: "Deadline", Reason: fmt.Sprintf("%v is negative", sp.Deadline)}
	}
	if sp.Offset < 0 {
		return &SpecError{Task: sp.Name, Field: "Offset", Reason: fmt.Sprintf("%v is negative", sp.Offset)}
	}
	if sp.Count < 0 {
		return &SpecError{Task: sp.Name, Field: "Count", Reason: fmt.Sprintf("%d is negative", sp.Count)}
	}
	if sp.MaxRetries < 0 {
		return &SpecError{Task: sp.Name, Field: "MaxRetries", Reason: fmt.Sprintf("%d is negative", sp.MaxRetries)}
	}
	if sp.RetryBackoff < 0 {
		return &SpecError{Task: sp.Name, Field: "RetryBackoff", Reason: fmt.Sprintf("%v is negative", sp.RetryBackoff)}
	}
	if sp.MaxResponse < 0 {
		return &SpecError{Task: sp.Name, Field: "MaxResponse", Reason: fmt.Sprintf("%v is negative", sp.MaxResponse)}
	}
	if sp.Batch < 0 {
		return &SpecError{Task: sp.Name, Field: "Batch", Reason: fmt.Sprintf("%d is negative", sp.Batch)}
	}
	if sp.Batch > 0 && sp.Batch != sp.Prog.BatchN() {
		return &SpecError{Task: sp.Name, Field: "Batch",
			Reason: fmt.Sprintf("%d does not match program batch %d", sp.Batch, sp.Prog.BatchN())}
	}
	return nil
}

// TaskSpec describes one recurring workload bound to a priority slot.
type TaskSpec struct {
	Name string
	Slot int
	Prog *isa.Program

	// Arena, when non-nil, is the task's DDR image: every request of the
	// task executes the datapath functionally against it (bit-exact outputs,
	// same cycle model). Nil runs timing-only. Successive iterations of a
	// task rewrite the same deterministic bytes, so the arena after a run
	// equals a single golden execution — the property the verification
	// harness checks through the whole sched+IAU+accel stack.
	Arena []byte

	// Batch declares the batch size the task's requests operate on. Zero
	// means "whatever the program was compiled for"; a non-zero value must
	// match Prog's compiled batch (it exists to catch a spec wired to a
	// program compiled for a different batch, which would otherwise fail
	// deep inside the stream as an addressing error).
	Batch int

	// Period schedules arrivals every Period of simulated time. Zero with
	// Continuous unset means a single arrival at Offset.
	Period time.Duration
	// Offset delays the first arrival.
	Offset time.Duration
	// Count limits the number of periodic arrivals (0 = until horizon).
	Count int
	// Continuous resubmits the task immediately after each completion
	// (best-effort background work such as place recognition).
	Continuous bool
	// Deadline, when non-zero, is the per-request relative deadline.
	Deadline time.Duration
	// DropIfBusy skips a periodic arrival when the previous request of this
	// task is still queued or running (a camera pipeline drops frames
	// rather than queueing them indefinitely).
	DropIfBusy bool

	// MaxResponse, when non-zero, declares the worst-case preemption
	// response this task tolerates from whatever is running below it when it
	// arrives. Run rejects the spec if any co-scheduled program's
	// compiler-proven ResponseBound exceeds it — the admission-time use of
	// the bound VIBudget placement emits.
	MaxResponse time.Duration

	// MaxRetries bounds how many times a watchdog-killed request is
	// resubmitted before the iteration is shed (graceful degradation: a
	// continuous task immediately starts its next iteration instead).
	MaxRetries int
	// RetryBackoff delays each resubmission; attempt k waits k+1 backoffs,
	// so a persistently failing slot drains to lower-priority work instead
	// of hammering the accelerator (linear backoff keeps worst-case retry
	// latency analyzable for deadline tasks).
	RetryBackoff time.Duration
}

// TaskStats aggregates per-task results.
type TaskStats struct {
	Name      string
	Slot      int
	Submitted int
	Completed int
	Dropped   int

	DeadlineMisses int

	// Response times (submit -> done), cycles.
	Latencies []uint64

	ExecCycles    uint64
	FetchCycles   uint64
	InterruptCost uint64
	Preempted     int

	// Fault/recovery accounting (zero in fault-free runs).
	Retried   int // watchdog-killed requests resubmitted
	Corrupted int // corrupt backups detected at restore
	Recovered int // re-executions that then ran to completion
	Shed      int // iterations abandoned after retries were exhausted

	// Attempts counts execution attempts admitted to this IAU: one per
	// submitted request plus one per slot-level retry (Retried). A
	// cluster-level migration retry re-places the request on a different
	// engine and is counted by cluster.Outcome.Attempts instead, keeping
	// the two retry ledgers distinguishable.
	Attempts int

	gaps []uint64 // cycles between consecutive completions
}

// MeanLatency returns the average response time in cycles.
func (s *TaskStats) MeanLatency() float64 {
	if len(s.Latencies) == 0 {
		return 0
	}
	var t float64
	for _, l := range s.Latencies {
		t += float64(l)
	}
	return t / float64(len(s.Latencies))
}

// MaxLatency returns the worst response time in cycles.
func (s *TaskStats) MaxLatency() uint64 {
	var m uint64
	for _, l := range s.Latencies {
		if l > m {
			m = l
		}
	}
	return m
}

// SLAAttainment is the fraction of the task's finished iterations that met
// their service-level objective: completions within the deadline over
// completions plus shed iterations (a shed iteration is a missed SLA by
// definition). A task that never finished anything reports 1 — there is
// no evidence of violation, and dividing by zero would poison aggregate
// means.
func (s *TaskStats) SLAAttainment() float64 {
	denom := s.Completed + s.Shed
	if denom == 0 {
		return 1
	}
	met := s.Completed - s.DeadlineMisses
	if met < 0 {
		met = 0
	}
	return float64(met) / float64(denom)
}

// Result is the outcome of one scheduling run.
type Result struct {
	Config  accel.Config
	Policy  iau.Policy
	Horizon uint64 // cycles simulated

	Tasks map[string]*TaskStats
	// TaskNames lists the task names in spec-submission order — the ordered
	// companion slice to the Tasks map, so aggregate metrics never walk the
	// map (the determinism lint forbids any map range in this package).
	TaskNames   []string
	Preemptions []*iau.Preemption
	BusyCycles  uint64
	IdleCycles  uint64

	// Tracer is the cycle-accurate tracer the run emitted into (nil unless
	// WithTracer was passed). Flush it with trace.WriteFiles (or
	// Tracer.WritePerfettoNamed and Tracer.Metrics) after the run, or draw
	// its marks with Gantt.
	Tracer *trace.Tracer

	// Cycle accounting by class from the accelerator engine.
	CalcCycles   uint64
	XferCycles   uint64
	HiddenCycles uint64

	// OverheadCycles is the interrupt-support tax: virtual-instruction
	// fetches plus backup/restore transfers.
	OverheadCycles uint64

	// Faults reports injection and recovery activity (nil when the run had
	// no injector armed).
	Faults *FaultReport
}

// FaultReport is the per-run fault ledger: what the injector did and what
// the stack detected and recovered.
type FaultReport struct {
	Injected          fault.Report
	WatchdogKills     int
	CorruptedRestores int
	LostIRQs          int
	Stalls            int
	StallCycles       uint64
	Retries           int
	Shed              int // iterations permanently abandoned
}

func (f *FaultReport) String() string {
	return fmt.Sprintf("%v\nrecovery: %d watchdog kills, %d corrupt restores detected, %d IRQs lost, %d stalls (%d cycles), %d retries, %d iterations shed",
		f.Injected, f.WatchdogKills, f.CorruptedRestores, f.LostIRQs, f.Stalls, f.StallCycles, f.Retries, f.Shed)
}

// Options tunes a scheduling run beyond the base (cfg, policy, specs,
// horizon) tuple. Construct it through Run's functional options.
type Options struct {
	// Tracer, when non-nil, receives the cycle-accurate event stream
	// (Perfetto timeline + metrics snapshot) from the IAU, the engine, and
	// the scheduler itself.
	Tracer *trace.Tracer
	// Faults arms the IAU's fault sites with this injector.
	Faults *fault.Injector
	// WatchdogCycles bounds per-instruction cycles (0 with Faults set:
	// derived automatically from the task programs via iau.WatchdogBound).
	WatchdogCycles uint64
	// Predictive, when non-nil, installs the PREMA-style predictive
	// scheduler as the IAU's decision policy. run() binds each spec's
	// program and deadline into it; the base policy argument then only
	// selects the static-fallback interrupt method.
	Predictive *PolicyPredictive
	// PredictiveCold suppresses the compiler-stats estimate seeding, so
	// the policy starts on the static fallback and trains online.
	PredictiveCold bool
}

// Option configures one aspect of a scheduling run.
type Option func(*Options)

// WithTracer attaches a cycle-accurate tracer to the run: instruction spans
// and scheduling marks from every layer land in tr, and Result.Tracer
// exposes it for post-run Perfetto/metrics flushing.
func WithTracer(tr *trace.Tracer) Option { return func(o *Options) { o.Tracer = tr } }

// WithFaults arms deterministic fault injection with the given injector.
func WithFaults(inj *fault.Injector) Option { return func(o *Options) { o.Faults = inj } }

// WithWatchdog bounds the cycles any single instruction may take before the
// IAU kills and resets the slot.
func WithWatchdog(cycles uint64) Option { return func(o *Options) { o.WatchdogCycles = cycles } }

// WithPredictive drives the run with the PREMA-style predictive scheduler
// instead of the static slot-priority rule. Pass a fresh NewPredictive
// (run binds the specs' programs and deadlines into it) or a pre-trained
// one to carry estimates across runs.
func WithPredictive(p *PolicyPredictive) Option { return func(o *Options) { o.Predictive = p } }

// WithPredictiveCold starts the predictive scheduler with cold estimates
// (no compiler-stats seeding): it behaves statically until completions
// train it. Only meaningful together with WithPredictive.
func WithPredictiveCold() Option { return func(o *Options) { o.PredictiveCold = true } }

// Utilization is the fraction of simulated time the accelerator was busy.
func (r *Result) Utilization() float64 {
	if r.Horizon == 0 {
		return 0
	}
	return float64(r.BusyCycles) / float64(r.Horizon)
}

// Degradation is the fraction of busy cycles spent on interrupt support
// rather than useful work — the paper reports <0.3 % for the VI method.
func (r *Result) Degradation() float64 {
	if r.BusyCycles == 0 {
		return 0
	}
	return float64(r.OverheadCycles) / float64(r.BusyCycles)
}

// CycleStats reports the accelerator's compute vs exposed-transfer vs
// hidden-transfer cycle split.
func (r *Result) CycleStats() (calc, xfer, hidden uint64) {
	return r.CalcCycles, r.XferCycles, r.HiddenCycles
}

// JainFairness returns the Jain fairness index over the tasks' useful
// accelerator cycles: (Σx)²/(n·Σx²), 1 when every task received equal
// service, 1/n when one task got everything. Iteration follows the
// ordered TaskNames slice so the result is deterministic.
func (r *Result) JainFairness() float64 {
	var sum, sumSq float64
	n := 0
	for _, name := range r.TaskNames {
		x := float64(r.Tasks[name].ExecCycles)
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// MeanSLAAttainment averages SLAAttainment over all tasks (spec order),
// the headline number the SCHED bench gates on.
func (r *Result) MeanSLAAttainment() float64 {
	if len(r.TaskNames) == 0 {
		return 1
	}
	var sum float64
	for _, name := range r.TaskNames {
		sum += r.Tasks[name].SLAAttainment()
	}
	return sum / float64(len(r.TaskNames))
}

// CompletionGaps returns the cycles between consecutive completions of the
// named task (used to verify "PR completes every 7–10 camera frames").
func (r *Result) CompletionGaps(name string) []uint64 {
	st := r.Tasks[name]
	if st == nil {
		return nil
	}
	return st.gaps
}

type runnerTask struct {
	spec  TaskSpec
	stats *TaskStats
	// inFlight counts submitted-but-not-completed requests.
	inFlight int
	nextSeq  int
}

// gaps is stored on TaskStats via an unexported field.
func (s *TaskStats) addGap(g uint64) { s.gaps = append(s.gaps, g) }

// Run executes the task set under the policy for the given horizon of
// simulated time. Behaviour beyond the base tuple is selected with
// functional options: WithTracer, WithFaults, WithWatchdog, WithPredictive.
func Run(cfg accel.Config, policy iau.Policy, specs []TaskSpec, horizon time.Duration, opts ...Option) (*Result, error) {
	var opt Options
	for _, fn := range opts {
		fn(&opt)
	}
	return run(cfg, policy, specs, horizon, opt)
}

func run(cfg accel.Config, policy iau.Policy, specs []TaskSpec, horizon time.Duration, opt Options) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	horizonCycles := cfg.SecondsToCycles(horizon.Seconds())
	u := iau.New(cfg, policy)
	u.Faults = opt.Faults
	u.WatchdogCycles = opt.WatchdogCycles
	if opt.Tracer != nil {
		u.AttachTracer(opt.Tracer)
	}
	res := &Result{Config: cfg, Policy: policy, Horizon: horizonCycles, Tasks: make(map[string]*TaskStats), Tracer: opt.Tracer}

	tasks := make(map[string]*runnerTask, len(specs))
	bySlot := make(map[int]*runnerTask, len(specs))
	for _, sp := range specs {
		sp := sp
		if err := validateSpec(&sp); err != nil {
			return nil, err
		}
		if _, dup := tasks[sp.Name]; dup {
			return nil, fmt.Errorf("sched: duplicate task name %q", sp.Name)
		}
		if other, busy := bySlot[sp.Slot]; busy {
			return nil, fmt.Errorf("sched: slot %d claimed by both %q and %q", sp.Slot, other.spec.Name, sp.Name)
		}
		rt := &runnerTask{spec: sp, stats: &TaskStats{Name: sp.Name, Slot: sp.Slot}}
		tasks[sp.Name] = rt
		bySlot[sp.Slot] = rt
		res.Tasks[sp.Name] = rt.stats
		res.TaskNames = append(res.TaskNames, sp.Name)
		opt.Tracer.SetTaskLabel(sp.Slot, sp.Name)
	}
	// Response-budget feasibility: a task's preemption response is bounded
	// by the proven ResponseBound of whatever lower-priority (higher-slot)
	// program it may preempt. Reject task sets whose modeled bounds already
	// break a declared budget — the run could only confirm the failure.
	for _, sp := range specs {
		if sp.MaxResponse <= 0 {
			continue
		}
		budget := cfg.SecondsToCycles(sp.MaxResponse.Seconds())
		for _, lo := range specs {
			if lo.Slot <= sp.Slot || lo.Prog.ResponseBound == 0 {
				continue
			}
			if lo.Prog.ResponseBound > budget {
				return nil, &SpecError{Task: sp.Name, Field: "MaxResponse",
					Reason: fmt.Sprintf("%v (%d cycles) is below task %q's proven response bound of %d cycles (recompile it with a tighter placement: compiler.VIBudget{MaxResponseCycles: %d} or compiler.VIEvery)",
						sp.MaxResponse, budget, lo.Name, lo.Prog.ResponseBound, budget)}
			}
		}
	}
	if opt.Faults != nil && u.WatchdogCycles == 0 {
		// A hang with no watchdog is fatal; derive a safe bound so injected
		// hangs become recoverable slot resets instead.
		progs := make([]*isa.Program, 0, len(specs))
		for _, sp := range specs {
			progs = append(progs, sp.Prog)
		}
		u.WatchdogCycles = iau.WatchdogBound(cfg, progs...)
	}
	if opt.Predictive != nil {
		if opt.Tracer != nil && opt.Predictive.tracer == nil {
			opt.Predictive.tracer = opt.Tracer
		}
		for _, sp := range specs {
			opt.Predictive.Bind(sp.Slot, sp.Prog,
				cfg.SecondsToCycles(sp.Deadline.Seconds()), opt.PredictiveCold)
		}
		u.Sched = opt.Predictive
	}

	submit := func(rt *runnerTask, cycle uint64) error {
		req := &iau.Request{
			Label:      fmt.Sprintf("%s#%d", rt.spec.Name, rt.nextSeq),
			Prog:       rt.spec.Prog,
			Arena:      rt.spec.Arena,
			DropIfBusy: rt.spec.DropIfBusy,
		}
		rt.nextSeq++
		rt.inFlight++
		rt.stats.Submitted++
		rt.stats.Attempts++
		return u.SubmitAt(rt.spec.Slot, req, cycle)
	}
	u.OnDrop = func(slot int, _ *iau.Request) {
		if rt := bySlot[slot]; rt != nil {
			rt.inFlight--
			rt.stats.Submitted--
			rt.stats.Attempts--
			rt.stats.Dropped++
		}
	}
	// Bounded retry with linear backoff; exhausted retries shed the
	// iteration (graceful degradation) and, for continuous tasks, start the
	// next one so background work keeps flowing.
	u.OnFail = func(c iau.Completion, failErr error) {
		rt := bySlot[c.Slot]
		if rt == nil {
			return
		}
		st := rt.stats
		if u.RetryFailed(c, rt.spec.MaxRetries, cfg.SecondsToCycles(rt.spec.RetryBackoff.Seconds())) {
			st.Retried++
			st.Attempts++
			return
		}
		rt.inFlight--
		// The request is gone for good; OnComplete never runs for it, so
		// fold its corruption count in here.
		st.Corrupted += c.Req.Corrupted
		st.Shed++
		opt.Tracer.Mark(trace.KindShed, c.Slot, u.Now, uint64(c.Req.Retries), c.Req.Label)
		if rt.spec.Continuous && u.Now < horizonCycles {
			if err := submit(rt, u.Now); err != nil {
				st.Dropped++
			}
		}
	}

	// Pre-register periodic arrivals in spec order (ranging over the tasks
	// map would randomise arrival-heap tie-break seq numbers across runs);
	// closed-loop tasks are fed by the completion callback.
	for _, reg := range specs {
		rt := tasks[reg.Name]
		sp := rt.spec
		if sp.Continuous {
			if err := submit(rt, cfg.SecondsToCycles(sp.Offset.Seconds())); err != nil {
				return nil, err
			}
			continue
		}
		if sp.Period <= 0 {
			if err := submit(rt, cfg.SecondsToCycles(sp.Offset.Seconds())); err != nil {
				return nil, err
			}
			continue
		}
		n := sp.Count
		if n == 0 {
			n = int(math.Ceil((horizon - sp.Offset).Seconds() / sp.Period.Seconds()))
		}
		for i := 0; i < n; i++ {
			at := sp.Offset + time.Duration(i)*sp.Period
			if at >= horizon {
				break
			}
			if err := submit(rt, cfg.SecondsToCycles(at.Seconds())); err != nil {
				return nil, err
			}
		}
	}

	lastDone := make(map[string]uint64)
	u.OnComplete = func(c iau.Completion) {
		rt := bySlot[c.Slot]
		if rt == nil {
			return
		}
		st := rt.stats
		rt.inFlight--
		st.Completed++
		st.Latencies = append(st.Latencies, c.Req.DoneCycle-c.Req.SubmitCycle)
		st.ExecCycles += c.Req.ExecCycles
		st.FetchCycles += c.Req.FetchCycles
		st.InterruptCost += c.Req.InterruptCost
		st.Preempted += c.Req.Preemptions
		st.Corrupted += c.Req.Corrupted
		st.Recovered += c.Req.Restarts
		if prev, ok := lastDone[rt.spec.Name]; ok {
			st.addGap(c.Req.DoneCycle - prev)
		}
		lastDone[rt.spec.Name] = c.Req.DoneCycle
		if rt.spec.Deadline > 0 &&
			c.Req.DoneCycle-c.Req.SubmitCycle > cfg.SecondsToCycles(rt.spec.Deadline.Seconds()) {
			st.DeadlineMisses++
			opt.Tracer.Mark(trace.KindDeadlineMiss, c.Slot, c.Req.DoneCycle,
				c.Req.DoneCycle-c.Req.SubmitCycle, c.Req.Label)
		}
		if rt.spec.Continuous && c.Req.DoneCycle < horizonCycles {
			if err := submit(rt, c.Req.DoneCycle); err != nil {
				// Submission at the completion cycle cannot be in the past;
				// record as a dropped iteration if it ever fails.
				st.Dropped++
			}
		}
	}

	if err := u.Run(horizonCycles); err != nil {
		return nil, err
	}
	res.Preemptions = u.Preemptions
	res.BusyCycles = u.BusyCycles
	res.IdleCycles = u.IdleCycles
	res.CalcCycles, res.XferCycles, res.HiddenCycles = u.Eng.CycleStats()
	for _, sp := range specs {
		st := res.Tasks[sp.Name]
		res.OverheadCycles += st.FetchCycles + st.InterruptCost
	}
	sort.Slice(res.Preemptions, func(i, j int) bool {
		return res.Preemptions[i].RequestCycle < res.Preemptions[j].RequestCycle
	})
	if opt.Faults != nil {
		fr := &FaultReport{
			Injected:          opt.Faults.Report(),
			WatchdogKills:     u.Fault.WatchdogKills,
			CorruptedRestores: u.Fault.CorruptedRestores,
			LostIRQs:          u.Fault.LostIRQs,
			Stalls:            u.Fault.Stalls,
			StallCycles:       u.Fault.StallCycles,
		}
		for _, sp := range specs {
			st := res.Tasks[sp.Name]
			fr.Retries += st.Retried
			fr.Shed += st.Shed
		}
		res.Faults = fr
	}
	return res, nil
}
