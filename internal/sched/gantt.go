package sched

import (
	"fmt"
	"strings"

	"inca/internal/accel"
	"inca/internal/iau"
	"inca/internal/trace"
)

// Gantt renders an execution timeline as text: one row per priority slot,
// one column per time bin, '#' where the slot's task held the accelerator.
// Built from a tracer's marks (Run with WithTracer, then Tracer.Events): a
// slot holds the accelerator from each start, resume or restart to the next
// preempt, complete or kill. It makes the paper's Fig. 2(a) scheduling
// diagram reproducible for any workload:
//
//	slot0 |      ####      ####      ####     | FE
//	slot1 |######    ######    ######    #####| PR
func Gantt(cfg accel.Config, events []trace.Event, horizon uint64, cols int) string {
	if cols <= 0 {
		cols = 72
	}
	if horizon == 0 || len(events) == 0 {
		return "(no timeline)\n"
	}
	type interval struct {
		from, to uint64
	}
	busy := map[int][]interval{}
	open := map[int]uint64{}
	names := map[int]string{}
	active := map[int]bool{}
	for _, e := range events {
		s := int(e.Slot)
		switch e.Kind {
		case trace.KindStart, trace.KindResume, trace.KindRestart:
			open[s] = e.Cycle
			active[s] = true
			if _, ok := names[s]; !ok {
				names[s] = strings.SplitN(e.Label, "#", 2)[0]
			}
		case trace.KindPreempt, trace.KindComplete, trace.KindKill:
			if active[s] {
				busy[s] = append(busy[s], interval{open[s], e.Cycle})
				active[s] = false
			}
		}
	}
	for slot := 0; slot < iau.NumSlots; slot++ {
		if active[slot] {
			busy[slot] = append(busy[slot], interval{open[slot], horizon})
		}
	}

	var slots []int
	for s := 0; s < iau.NumSlots; s++ {
		if len(busy[s]) > 0 {
			slots = append(slots, s)
		}
	}
	var b strings.Builder
	binCycles := float64(horizon) / float64(cols)
	for _, s := range slots {
		row := make([]byte, cols)
		for i := range row {
			row[i] = ' '
		}
		for _, iv := range busy[s] {
			c0 := int(float64(iv.from) / binCycles)
			c1 := int(float64(iv.to) / binCycles)
			if c1 >= cols {
				c1 = cols - 1
			}
			for c := c0; c <= c1; c++ {
				row[c] = '#'
			}
		}
		fmt.Fprintf(&b, "slot%d |%s| %s\n", s, row, names[s])
	}
	fmt.Fprintf(&b, "       0%sms\n", strings.Repeat(" ", cols-len(fmt.Sprintf("%.0f", cfg.CyclesToMicros(horizon)/1000))-1)+fmt.Sprintf("%.0f", cfg.CyclesToMicros(horizon)/1000))
	return b.String()
}
