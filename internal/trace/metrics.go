package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
)

// histBuckets is the number of power-of-two latency buckets: bucket i
// holds observations in [2^i, 2^(i+1)), bucket 0 additionally holds 0.
// 48 buckets cover any latency a uint64 cycle counter can express within
// a simulated mission.
const histBuckets = 48

// Histogram is a power-of-two-bucketed latency distribution. The zero
// value is ready to use.
type Histogram struct {
	Counts [histBuckets]uint64
	N      uint64
	Sum    uint64
	Max    uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	b := 0
	if v > 0 {
		b = bits.Len64(v) - 1
		if b >= histBuckets {
			b = histBuckets - 1
		}
	}
	h.Counts[b]++
	h.N++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Mean returns the average observed value.
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// exclusive upper edge of the bucket the q·N-th observation fell in.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.N == 0 {
		return 0
	}
	rank := uint64(q * float64(h.N))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			upper := uint64(1) << uint(i+1)
			if upper > h.Max && h.Max > 0 {
				upper = h.Max
			}
			return upper
		}
	}
	return h.Max
}

// histJSON is the serialised histogram: summary statistics plus the
// non-empty buckets (lower edge → count), smallest edge first.
type histJSON struct {
	N       uint64      `json:"n"`
	Sum     uint64      `json:"sum"`
	Max     uint64      `json:"max"`
	Mean    float64     `json:"mean"`
	P50     uint64      `json:"p50"`
	P95     uint64      `json:"p95"`
	P99     uint64      `json:"p99"`
	Buckets [][2]uint64 `json:"buckets,omitempty"`
}

// MarshalJSON serialises the histogram deterministically.
func (h Histogram) MarshalJSON() ([]byte, error) {
	j := histJSON{
		N: h.N, Sum: h.Sum, Max: h.Max, Mean: h.Mean(),
		P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
	}
	for i, c := range h.Counts {
		if c > 0 {
			j.Buckets = append(j.Buckets, [2]uint64{1 << uint(i), c})
		}
	}
	return json.Marshal(j)
}

// TaskMetrics aggregates one slot's activity. Cycle fields partition the
// slot's accelerator-busy time:
//
//	ExecCycles (sched.TaskStats) == Calc + Xfer + Backup + Restore
//	InterruptCost               == Backup + Restore
//	FetchCycles                 == Fetch
//
// — the conservation laws the verification harness asserts.
type TaskMetrics struct {
	Slot  int    `json:"slot"`
	Label string `json:"label,omitempty"`

	// Where the cycles went.
	CalcCycles    uint64 `json:"calc_cycles"`
	XferCycles    uint64 `json:"xfer_cycles"`
	FetchCycles   uint64 `json:"fetch_cycles"`
	BackupCycles  uint64 `json:"backup_cycles"`
	RestoreCycles uint64 `json:"restore_cycles"`
	StallCycles   uint64 `json:"stall_cycles"`
	// WaitCycles is time spent parked between a preemption and the
	// following resume (or restart) — latency the task lost to
	// higher-priority work, not accelerator time it consumed.
	WaitCycles uint64 `json:"wait_cycles"`

	BackupBytes      uint64 `json:"backup_bytes"`
	RestoreBytes     uint64 `json:"restore_bytes"`
	SaveSkippedBytes uint64 `json:"save_skipped_bytes"`

	// What happened.
	Submitted      uint64 `json:"submitted"`
	Started        uint64 `json:"started"`
	Completed      uint64 `json:"completed"`
	Preemptions    uint64 `json:"preemptions"`
	Resumes        uint64 `json:"resumes"`
	Restarts       uint64 `json:"restarts"`
	Drops          uint64 `json:"drops"`
	Kills          uint64 `json:"kills"`
	Retries        uint64 `json:"retries"`
	Sheds          uint64 `json:"sheds"`
	DeadlineMisses uint64 `json:"deadline_misses"`
	SaveRewrites   uint64 `json:"save_rewrites"`
	Infers         uint64 `json:"infers"`
	InferDones     uint64 `json:"infer_dones"`
	InferFails     uint64 `json:"infer_fails"`
	Polls          uint64 `json:"polls"`

	// Cluster dispatcher activity. On a cluster tracer the "slot" is an
	// engine id, so these count per-engine: tasks migrated away from the
	// engine, times the engine was quarantined/readmitted, and admissions
	// the dispatcher rejected when this engine was the least-loaded choice.
	Migrations   uint64 `json:"migrations,omitempty"`
	Quarantines  uint64 `json:"quarantines,omitempty"`
	Readmits     uint64 `json:"readmits,omitempty"`
	AdmitRejects uint64 `json:"admit_rejects,omitempty"`

	// Predictive-scheduler activity: estimator updates and scheduling
	// decisions attributed to the slot.
	Estimates uint64 `json:"estimates,omitempty"`
	Decisions uint64 `json:"decisions,omitempty"`

	// Latency is the response-time distribution (submit → done, cycles).
	Latency Histogram `json:"latency"`

	// EstimateErr is the distribution of absolute remaining-cycle estimate
	// errors observed at task completions (KindEstimate arg).
	EstimateErr Histogram `json:"estimate_err,omitempty"`
}

// BusyCycles returns the accelerator-busy cycles the slot consumed.
func (m *TaskMetrics) BusyCycles() uint64 {
	return m.CalcCycles + m.XferCycles + m.BackupCycles + m.RestoreCycles
}

// Metrics is an aggregated snapshot of everything a tracer saw. Counters
// are exact even when the event ring wrapped (they are updated at emit
// time, not derived from the surviving events).
type Metrics struct {
	Tasks []TaskMetrics `json:"tasks"`
	// HiddenCycles is DMA time the prefetch pipeline hid under compute.
	HiddenCycles uint64 `json:"hidden_cycles"`
	// TotalEvents / DroppedEvents report ring pressure: Dropped > 0 means
	// the Perfetto timeline lost its oldest spans (or marks), while these
	// aggregates remain complete.
	TotalEvents   uint64 `json:"total_events"`
	DroppedEvents uint64 `json:"dropped_events"`
}

// Metrics returns a copy of the tracer's aggregates. Slots that never saw
// an event are omitted. Safe on a nil receiver (returns an empty snapshot).
func (t *Tracer) Metrics() *Metrics {
	m := &Metrics{}
	if t == nil {
		return m
	}
	m.HiddenCycles = t.hidden
	m.TotalEvents = t.Total()
	m.DroppedEvents = t.Dropped()
	for i := range t.slots {
		tm := t.slots[i]
		if tm == (TaskMetrics{Slot: tm.Slot, Label: tm.Label}) {
			continue
		}
		m.Tasks = append(m.Tasks, tm)
	}
	return m
}

// Task returns the metrics for a slot, or nil when the slot saw no events.
func (m *Metrics) Task(slot int) *TaskMetrics {
	for i := range m.Tasks {
		if m.Tasks[i].Slot == slot {
			return &m.Tasks[i]
		}
	}
	return nil
}

// WriteJSON serialises the snapshot as indented JSON — the machine-readable
// per-phase cycle breakdown that rides along with bench.WriteJSON outputs.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// String renders a compact per-slot summary for terminal output.
func (m *Metrics) String() string {
	s := ""
	for i := range m.Tasks {
		t := &m.Tasks[i]
		name := t.Label
		if name == "" {
			name = fmt.Sprintf("slot%d", t.Slot)
		}
		s += fmt.Sprintf("%-12s busy %12d (calc %d, xfer %d, backup %d, restore %d) fetch %d wait %d done %d preempt %d miss %d\n",
			name, t.BusyCycles(), t.CalcCycles, t.XferCycles, t.BackupCycles, t.RestoreCycles,
			t.FetchCycles, t.WaitCycles, t.Completed, t.Preemptions, t.DeadlineMisses)
	}
	if m.DroppedEvents > 0 {
		s += fmt.Sprintf("(ring wrapped: %d of %d events dropped from the timeline; aggregates are exact)\n",
			m.DroppedEvents, m.TotalEvents)
	}
	return s
}
