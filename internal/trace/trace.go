// Package trace is the cycle-accurate observability layer of the stack: a
// flight recorder the IAU, engine, scheduler and runtime emit timestamped
// events into, plus the two consumers those events feed — a Perfetto
// (Chrome trace_event) timeline and an aggregated per-slot metrics
// snapshot with latency histograms.
//
// Design constraints, in order:
//
//   - Zero overhead when disabled. Every emit method is nil-receiver safe,
//     so instrumented code holds a possibly-nil *Tracer and pays a single
//     pointer comparison per event site when tracing is off.
//   - Deterministic. Events carry cycle timestamps (never wall-clock), are
//     appended in simulation order, and both serialisers write
//     field-ordered JSON — the same seed produces byte-identical output,
//     which is what lets the verification harness assert over traces.
//   - Bounded. Spans and marks land in two fixed-capacity rings: when one
//     wraps, its oldest events are overwritten (flight-recorder semantics)
//     and Dropped() counts the loss — never silent. Marks are O(requests)
//     and spans O(instructions), so the instruction stream never evicts
//     the scheduling story. The aggregated metrics are updated at emit
//     time, so counters and cycle sums stay exact even after a ring has
//     wrapped.
//
// The package is a leaf: it imports nothing from the rest of the
// repository, so every layer (accel, iau, sched, core, slam) can emit.
package trace

// Kind classifies an event. Span kinds carry a duration (where the cycles
// went); mark kinds are instants (what happened).
type Kind uint8

// Span kinds: engine/IAU activity with a cycle duration.
const (
	// KindCalc is a MAC-array compute instruction (CALC_I / CALC_F).
	KindCalc Kind = iota
	// KindXfer is an ordinary DMA transfer (LOAD_W, LOAD_D, SAVE).
	KindXfer
	// KindFetch is a virtual instruction fetched and discarded by the IAU
	// on the uninterrupted path — the paper's degradation source.
	KindFetch
	// KindBackup is an interrupt backup: a materialised Vir_SAVE or a
	// CPU-like full-cache spill. Arg carries the bytes stored.
	KindBackup
	// KindRestore is an interrupt restore: a materialised Vir_LOAD_D or a
	// CPU-like refill. Arg carries the bytes reloaded.
	KindRestore
	// KindStall is an injected (or modelled) instruction stall.
	KindStall
	// KindHidden records DMA cycles hidden under compute by the prefetch
	// pipeline (emitted by the engine; informational, not busy time).
	KindHidden

	markStart // internal fence: kinds below are instants

	// KindSubmit marks a request admitted to a slot's queue.
	KindSubmit
	// KindStart marks a request beginning execution.
	KindStart
	// KindPreempt marks a slot switch: the victim parked at a boundary.
	KindPreempt
	// KindResume marks a preempted request resuming.
	KindResume
	// KindComplete marks a request finishing. Arg carries the response
	// latency in cycles (submit → done), which feeds the histogram.
	KindComplete
	// KindDrop marks a DropIfBusy request discarded at admission.
	KindDrop
	// KindKill marks a watchdog kill of a hung slot.
	KindKill
	// KindRestart marks a corrupt-backup detection and re-execution.
	KindRestart
	// KindRetry marks a killed request resubmitted by the scheduler.
	KindRetry
	// KindShed marks an iteration abandoned after the retry budget.
	KindShed
	// KindDeadlineMiss marks a completion past its relative deadline.
	KindDeadlineMiss
	// KindSaveRewrite marks a SAVE shortened because a Vir_SAVE already
	// stored a prefix. Arg carries the bytes skipped.
	KindSaveRewrite
	// KindInfer marks an InferAsync submission through the runtime.
	KindInfer
	// KindInferDone marks an InferAsync completion callback delivery.
	KindInferDone
	// KindInferFail marks an InferAsync failure callback delivery.
	KindInferFail
	// KindPoll marks one driver poll tick (runtime ↔ middleware boundary).
	KindPoll

	// Cluster-level kinds: the EngineCluster dispatcher emits these with the
	// ENGINE id as the slot (each engine is one track of the cluster tracer),
	// not an IAU priority slot.

	// KindMigrate marks a task moved across engines: a preempted task stolen
	// and resumed elsewhere, or a failed task re-placed on a healthy engine.
	// Arg carries the destination engine id.
	KindMigrate
	// KindQuarantine marks an engine quarantined after consecutive faults.
	// Arg carries the backoff level.
	KindQuarantine
	// KindReadmit marks a quarantined engine readmitted after a successful
	// probe (or any completion proving it healthy).
	KindReadmit
	// KindAdmitReject marks a request refused (or evicted) by admission
	// control under overload or deadline infeasibility. Arg carries the
	// task priority.
	KindAdmitReject

	// Predictive-scheduler kinds (sched.PolicyPredictive).

	// KindEstimate marks a remaining-cycle estimator update at completion.
	// Arg carries the absolute estimate error in cycles, which feeds the
	// per-slot estimate-error histogram.
	KindEstimate
	// KindDecision marks a predictive scheduling decision that departed
	// from (or re-derived) the static rule: a preemption fired with a
	// chosen victim and method, or a non-static dispatch pick. Arg carries
	// the chosen interrupt method (iau.Policy value) for preemptions and
	// the picked slot for dispatches.
	KindDecision

	numKinds
)

var kindNames = [numKinds]string{
	KindCalc:         "calc",
	KindXfer:         "xfer",
	KindFetch:        "fetch",
	KindBackup:       "backup",
	KindRestore:      "restore",
	KindStall:        "stall",
	KindHidden:       "dma-hidden",
	markStart:        "?",
	KindSubmit:       "submit",
	KindStart:        "start",
	KindPreempt:      "preempt",
	KindResume:       "resume",
	KindComplete:     "complete",
	KindDrop:         "drop",
	KindKill:         "kill",
	KindRestart:      "restart",
	KindRetry:        "retry",
	KindShed:         "shed",
	KindDeadlineMiss: "deadline-miss",
	KindSaveRewrite:  "save-rewrite",
	KindInfer:        "infer",
	KindInferDone:    "infer-done",
	KindInferFail:    "infer-fail",
	KindPoll:         "poll",
	KindMigrate:      "migrate",
	KindQuarantine:   "quarantine",
	KindReadmit:      "readmit",
	KindAdmitReject:  "admit_reject",
	KindEstimate:     "estimate",
	KindDecision:     "decision",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "Kind(?)"
}

// IsSpan reports whether the kind carries a duration.
func (k Kind) IsSpan() bool { return k < markStart }

// Event is one recorded occurrence. Slot is -1 for events not attributable
// to a task slot (engine-internal detail such as DMA hiding).
type Event struct {
	Cycle uint64
	Dur   uint64 // zero for marks
	Kind  Kind
	Slot  int32
	Arg   uint64 // kind-specific payload (bytes, latency cycles, ...)
	Label string
}

// DefaultCapacity is the ring size New(0) selects: large enough to hold a
// full small-scale run, small enough (~3 MB) to leave on by default.
const DefaultCapacity = 1 << 16

// ring is a flight recorder: it appends up to limit entries, then
// overwrites the oldest one and counts the loss.
type ring[T any] struct {
	buf     []T
	limit   int
	next    int    // slot the next entry lands in once full
	dropped uint64 // entries overwritten
}

func (r *ring[T]) push(e T) {
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	if r.next++; r.next == len(r.buf) {
		r.next = 0
	}
	r.dropped++
}

// emitted is how many entries were ever pushed.
func (r *ring[T]) emitted() uint64 { return uint64(len(r.buf)) + r.dropped }

// ordered returns the surviving entries oldest first.
func (r *ring[T]) ordered() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// mark is a mark-ring slot: the event plus how many spans were emitted
// before it, which places it in the merged emission order.
type mark struct {
	Event
	spansBefore uint64
}

// Tracer is the recorder. All emit methods are safe on a nil receiver, so
// a disabled site costs one pointer comparison.
//
// Now is the current simulation cycle; the component that owns time (the
// IAU) keeps it updated so emitters without their own clock (the engine)
// can timestamp correctly. Single-threaded simulation makes this safe —
// the tracer is not concurrency-safe and does not need to be.
type Tracer struct {
	Now uint64

	// Spans and marks keep separate rings of the same capacity. The span
	// ring is allocated up front; the mark ring grows by append.
	spans ring[Event]
	marks ring[mark]

	slots     []TaskMetrics
	preemptAt []uint64 // per-slot cycle of the last un-resumed preemption
	hidden    uint64   // global DMA-hidden cycles
}

// New creates a tracer whose span and mark rings each hold capacity
// events (0 = DefaultCapacity).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		spans: ring[Event]{buf: make([]Event, 0, capacity), limit: capacity},
		marks: ring[mark]{limit: capacity},
	}
}

// Span records an event with a duration starting at cycle.
func (t *Tracer) Span(kind Kind, slot int, cycle, dur uint64, arg uint64, label string) {
	if t == nil {
		return
	}
	t.aggregate(kind, slot, cycle, dur, arg)
	t.spans.push(Event{Cycle: cycle, Dur: dur, Kind: kind, Slot: int32(slot), Arg: arg, Label: label})
}

// Region is an open span minted by BeginAt and closed by EndAt. It exists
// for call sites that only learn a span's duration after advancing the
// simulated clock: the begin site pins the start cycle and the metadata, the
// end site supplies the final cycle, and the event is emitted exactly once
// at EndAt. The emitted Event is identical to a direct Span call with the
// same start cycle and duration.
//
// A Region from a nil Tracer is inert; EndAt on it is a no-op, preserving
// the zero-overhead-off guarantee. The pairing analyzer statically checks
// that every BeginAt reaches an EndAt on all return paths.
type Region struct {
	t     *Tracer
	start uint64
	arg   uint64
	kind  Kind
	slot  int32
	label string
}

// BeginAt opens a span at the given cycle. Nil-safe.
func (t *Tracer) BeginAt(kind Kind, slot int, cycle, arg uint64, label string) Region {
	if t == nil {
		return Region{}
	}
	return Region{t: t, kind: kind, slot: int32(slot), start: cycle, arg: arg, label: label}
}

// EndAt closes the region at the given cycle and emits the span event.
func (r Region) EndAt(cycle uint64) {
	if r.t == nil {
		return
	}
	r.t.Span(r.kind, int(r.slot), r.start, cycle-r.start, r.arg, r.label)
}

// Mark records an instantaneous event.
func (t *Tracer) Mark(kind Kind, slot int, cycle uint64, arg uint64, label string) {
	if t == nil {
		return
	}
	t.aggregate(kind, slot, cycle, 0, arg)
	t.marks.push(mark{Event{Cycle: cycle, Kind: kind, Slot: int32(slot), Arg: arg, Label: label}, t.spans.emitted()})
}

// slot returns the metrics bucket for a slot, growing the table on demand.
func (t *Tracer) slot(s int) *TaskMetrics {
	if s < 0 {
		return nil
	}
	for len(t.slots) <= s {
		t.slots = append(t.slots, TaskMetrics{Slot: len(t.slots)})
		t.preemptAt = append(t.preemptAt, 0)
	}
	return &t.slots[s]
}

func (t *Tracer) aggregate(kind Kind, slot int, cycle, dur, arg uint64) {
	if kind == KindHidden {
		t.hidden += dur
		return
	}
	m := t.slot(slot)
	if m == nil {
		return
	}
	switch kind {
	case KindCalc:
		m.CalcCycles += dur
	case KindXfer:
		m.XferCycles += dur
	case KindFetch:
		m.FetchCycles += dur
	case KindBackup:
		m.BackupCycles += dur
		m.BackupBytes += arg
	case KindRestore:
		m.RestoreCycles += dur
		m.RestoreBytes += arg
	case KindStall:
		m.StallCycles += dur
	case KindSubmit:
		m.Submitted++
	case KindStart:
		m.Started++
	case KindPreempt:
		m.Preemptions++
		t.preemptAt[slot] = cycle
	case KindResume, KindRestart:
		if kind == KindResume {
			m.Resumes++
		} else {
			m.Restarts++
		}
		if at := t.preemptAt[slot]; at > 0 && cycle >= at {
			m.WaitCycles += cycle - at
			t.preemptAt[slot] = 0
		}
	case KindComplete:
		m.Completed++
		m.Latency.Observe(arg)
	case KindDrop:
		m.Drops++
	case KindKill:
		m.Kills++
	case KindRetry:
		m.Retries++
	case KindShed:
		m.Sheds++
	case KindDeadlineMiss:
		m.DeadlineMisses++
	case KindSaveRewrite:
		m.SaveRewrites++
		m.SaveSkippedBytes += arg
	case KindInfer:
		m.Infers++
	case KindInferDone:
		m.InferDones++
	case KindInferFail:
		m.InferFails++
	case KindPoll:
		m.Polls++
	case KindMigrate:
		m.Migrations++
	case KindQuarantine:
		m.Quarantines++
	case KindReadmit:
		m.Readmits++
	case KindAdmitReject:
		m.AdmitRejects++
	case KindEstimate:
		m.Estimates++
		m.EstimateErr.Observe(arg)
	case KindDecision:
		m.Decisions++
	}
}

// SetTaskLabel names a slot in the metrics snapshot and the Perfetto
// thread track (e.g. "FE"). Safe on a nil receiver.
func (t *Tracer) SetTaskLabel(slot int, label string) {
	if t == nil {
		return
	}
	if m := t.slot(slot); m != nil {
		m.Label = label
	}
}

// Events returns the surviving events of both rings merged in emission
// order. Until a ring wraps, that is every event ever emitted; after, the
// oldest spans or marks are gone, but marks outlive the spans around them.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	spans, marks := t.spans.ordered(), t.marks.ordered()
	out := make([]Event, 0, len(spans)+len(marks))
	i, first := 0, t.spans.dropped // first: emission index of spans[0]
	for _, m := range marks {
		for i < len(spans) && first+uint64(i) < m.spansBefore {
			out = append(out, spans[i])
			i++
		}
		out = append(out, m.Event)
	}
	return append(out, spans[i:]...)
}

// Dropped returns how many events either ring overwrote after wrapping.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.spans.dropped + t.marks.dropped
}

// Total returns how many events were ever emitted.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.spans.emitted() + t.marks.emitted()
}
