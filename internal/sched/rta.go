package sched

import (
	"fmt"
	"math"
	"time"

	"inca/internal/accel"
	"inca/internal/cost"
	"inca/internal/iau"
	"inca/internal/isa"
)

// This file provides response-time analysis (RTA) for INCA task sets:
// classic fixed-priority, non-preemptive-blocking schedulability theory with
// the blocking term instantiated from the interrupt mechanism. It turns the
// paper's Eq. (1) latency bound into an a-priori deadline guarantee:
//
//	R_i = B_i + C_i + Σ_{j higher prio} ceil(R_i / T_j) · C_j
//
// where B_i is the longest time a lower-priority task can hold the
// accelerator before the mechanism allows a switch — a whole inference for
// the native accelerator, a layer for layer-by-layer, one CalcBlob plus its
// backup for the VI method.

// TaskModel is the analytical description of one task.
type TaskModel struct {
	Name string
	Slot int
	// Cost is the worst-case accelerator time of one inference (cycles):
	// the runtime's own occupancy, accel.SoloReplay, which also counts the
	// fetch of every virtual instruction the IAU skips.
	Cost uint64
	// Period is the minimum inter-arrival time (cycles); 0 marks a
	// best-effort task that never blocks anyone by arriving (it only
	// contributes blocking from below).
	Period uint64
	// Deadline (cycles, relative); 0 = no deadline to check.
	Deadline uint64
	// Blocking is the worst-case time this task can keep the accelerator
	// once started before the policy allows a preemption.
	Blocking uint64
}

// RTAResult is the analysis outcome for one task.
type RTAResult struct {
	Name     string
	Response uint64 // worst-case response time, cycles
	Deadline uint64
	Feasible bool // response <= deadline (or no deadline)
	// Converged is false when the recurrence exceeded the task's period
	// (the task set is overloaded at this priority level).
	Converged bool
}

// BlockingBound returns the worst time a compiled program can occupy the
// accelerator before the given policy can take an interrupt away from it.
func BlockingBound(cfg accel.Config, p *isa.Program, policy iau.Policy) (uint64, error) {
	switch policy {
	case iau.PolicyNone:
		// The whole inference, as the runtime occupies the accelerator.
		return accel.SoloReplay(cfg, p, nil), nil
	case iau.PolicyCPULike:
		// One instruction plus the full cache spill.
		return cost.Summarize(p, cfg).MaxInstr + cfg.XferCycles(uint32(cfg.TotalBufferBytes())), nil
	case iau.PolicyLayerByLayer:
		// Stream-exact: the longest inter-layer stretch of the compiled
		// program (transfer overlap ignored — a safe upper bound).
		return cost.NewTable(p, cfg).WorstLayerGap(), nil
	case iau.PolicyVI:
		// Stream-exact: the longest stretch between interrupt points,
		// including the closing backup. Programs compiled without the VI
		// pass correctly degenerate to whole-program blocking.
		return cost.Summarize(p, cfg).WorstPointGap(), nil
	default:
		return 0, fmt.Errorf("sched: no blocking bound for policy %v", policy)
	}
}

// NewTaskModel derives the analytical model of a task from its program.
func NewTaskModel(cfg accel.Config, name string, slot int, p *isa.Program, policy iau.Policy, period, deadline time.Duration) (TaskModel, error) {
	blocking, err := BlockingBound(cfg, p, policy)
	if err != nil {
		return TaskModel{}, err
	}
	return TaskModel{
		Name: name, Slot: slot, Cost: accel.SoloReplay(cfg, p, nil),
		Period:   cfg.SecondsToCycles(period.Seconds()),
		Deadline: cfg.SecondsToCycles(deadline.Seconds()),
		Blocking: blocking,
	}, nil
}

// Analyze runs the RTA recurrence for every task in the set. Tasks must
// have distinct slots; lower slot = higher priority.
func Analyze(tasks []TaskModel) ([]RTAResult, error) {
	seen := map[int]bool{}
	for _, t := range tasks {
		if seen[t.Slot] {
			return nil, fmt.Errorf("sched: duplicate slot %d in analysis", t.Slot)
		}
		seen[t.Slot] = true
	}
	var out []RTAResult
	for _, t := range tasks {
		// Blocking from below: the largest Blocking among strictly
		// lower-priority tasks (any of them may hold the accelerator when
		// this task arrives).
		var blocking uint64
		for _, o := range tasks {
			if o.Slot > t.Slot && o.Blocking > blocking {
				blocking = o.Blocking
			}
		}
		res := RTAResult{Name: t.Name, Deadline: t.Deadline, Converged: true}
		r := blocking + t.Cost
		for iter := 0; iter < 1000; iter++ {
			next := blocking + t.Cost
			for _, h := range tasks {
				if h.Slot >= t.Slot || h.Period == 0 {
					continue
				}
				next += uint64(math.Ceil(float64(r)/float64(h.Period))) * h.Cost
			}
			if next == r {
				break
			}
			r = next
			if t.Period > 0 && r > 100*t.Period {
				res.Converged = false
				break
			}
		}
		res.Response = r
		res.Feasible = res.Converged && (t.Deadline == 0 || r <= t.Deadline)
		out = append(out, res)
	}
	return out, nil
}
