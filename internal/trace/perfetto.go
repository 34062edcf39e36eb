package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Perfetto (Chrome trace_event) serialisation. The layout is one process
// (named by the caller of WritePerfettoNamed) with:
//
//   - tid 0: the engine track — one complete ("X") span per instruction
//     class event (calc, xfer, fetch, backup, restore, stall);
//   - tid 10+slot: one track per task slot, carrying nested duration
//     ("B"/"E") spans: an outer span per request (start → complete) with
//     inner "running" and "preempted" phases, so a preemption renders as
//     the victim's running span closing, a "preempted" span opening, and
//     the preemptor's request span appearing on its own track above it;
//   - instant ("i") events on the slot tracks for submits, drops, kills,
//     retries, sheds, deadline misses and runtime lifecycle marks.
//
// Timestamps are accelerator cycles written into the ts/dur microsecond
// fields: Perfetto renders them on a linear axis either way, and integer
// cycles keep the output byte-deterministic for a given seed.

const (
	engineTid   = 0
	slotTidBase = 10
)

type pfArgs struct {
	Name string `json:"name,omitempty"`
	Slot *int32 `json:"slot,omitempty"`
	Arg  uint64 `json:"arg,omitempty"`
	Kind string `json:"kind,omitempty"`
	Note string `json:"note,omitempty"`
}

type pfEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   uint64  `json:"ts"`
	Dur  *uint64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	S    string  `json:"s,omitempty"` // instant scope
	Args *pfArgs `json:"args,omitempty"`
}

type pfTrace struct {
	TraceEvents []pfEvent `json:"traceEvents"`
	Meta        *pfMeta   `json:"metadata,omitempty"`
}

type pfMeta struct {
	Clock   string `json:"clock"`
	Dropped uint64 `json:"dropped_events"`
	Total   uint64 `json:"total_events"`
}

// WritePerfettoNamed serialises the tracer's surviving events as Chrome
// trace_event JSON loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing, under the given process name — multi-accelerator runs
// (one tracer per engine) label their tracks. Output is deterministic for a
// given event sequence.
func (t *Tracer) WritePerfettoNamed(w io.Writer, process string) error {
	const pid = 1
	events := t.Events()
	out := pfTrace{Meta: &pfMeta{Clock: "accelerator-cycles", Dropped: t.Dropped(), Total: t.Total()}}
	add := func(e pfEvent) { out.TraceEvents = append(out.TraceEvents, e) }

	// Metadata: process and thread names, engine first, then slots in order.
	add(pfEvent{Name: "process_name", Ph: "M", Pid: pid, Tid: engineTid, Args: &pfArgs{Name: process}})
	add(pfEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: engineTid, Args: &pfArgs{Name: "engine"}})
	maxSlot := int32(-1)
	for i := range events {
		if events[i].Slot > maxSlot {
			maxSlot = events[i].Slot
		}
	}
	for s := int32(0); s <= maxSlot; s++ {
		name := fmt.Sprintf("slot%d", s)
		if t != nil && int(s) < len(t.slots) && t.slots[s].Label != "" {
			name += " " + t.slots[s].Label
		}
		add(pfEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: slotTidBase + int(s), Args: &pfArgs{Name: name}})
	}

	// Per-slot span state for B/E reconstruction. After a ring wrap the
	// oldest events are gone, so an E without a matching B is skipped and
	// still-open spans are closed at the final cycle.
	type slotState struct {
		reqOpen bool // outer request span
		runOpen bool // inner running span
		prOpen  bool // inner preempted span
	}
	st := map[int32]*slotState{}
	state := func(s int32) *slotState {
		if st[s] == nil {
			st[s] = &slotState{}
		}
		return st[s]
	}
	var last uint64

	begin := func(name string, slot int32, ts uint64) {
		add(pfEvent{Name: name, Ph: "B", Ts: ts, Pid: pid, Tid: slotTidBase + int(slot)})
	}
	end := func(slot int32, ts uint64) {
		add(pfEvent{Name: "", Ph: "E", Ts: ts, Pid: pid, Tid: slotTidBase + int(slot)})
	}
	instant := func(name string, slot int32, ts uint64, arg uint64, note string) {
		tid := slotTidBase + int(slot)
		if slot < 0 {
			tid = engineTid
		}
		add(pfEvent{Name: name, Ph: "i", Ts: ts, Pid: pid, Tid: tid, S: "t",
			Args: &pfArgs{Arg: arg, Note: note}})
	}

	for i := range events {
		ev := &events[i]
		if fin := ev.Cycle + ev.Dur; fin > last {
			last = fin
		}
		switch {
		case ev.Kind.IsSpan():
			// Engine track: every span is a complete event.
			dur := ev.Dur
			add(pfEvent{Name: ev.Kind.String(), Ph: "X", Ts: ev.Cycle, Dur: &dur,
				Pid: pid, Tid: engineTid, Args: &pfArgs{Slot: &ev.Slot, Arg: ev.Arg, Note: ev.Label}})
		case ev.Kind == KindStart:
			s := state(ev.Slot)
			s.reqOpen, s.runOpen = true, true
			begin(ev.Label, ev.Slot, ev.Cycle)
			begin("running", ev.Slot, ev.Cycle)
		case ev.Kind == KindPreempt:
			s := state(ev.Slot)
			if s.runOpen {
				end(ev.Slot, ev.Cycle)
				s.runOpen = false
			}
			if s.reqOpen {
				begin("preempted", ev.Slot, ev.Cycle)
				s.prOpen = true
			}
		case ev.Kind == KindResume || ev.Kind == KindRestart:
			s := state(ev.Slot)
			if s.prOpen {
				end(ev.Slot, ev.Cycle)
				s.prOpen = false
			}
			if s.reqOpen && !s.runOpen {
				name := "running"
				if ev.Kind == KindRestart {
					name = "re-executing"
				}
				begin(name, ev.Slot, ev.Cycle)
				s.runOpen = true
			}
			if ev.Kind == KindRestart {
				instant("restart", ev.Slot, ev.Cycle, ev.Arg, ev.Label)
			}
		case ev.Kind == KindComplete || ev.Kind == KindKill:
			s := state(ev.Slot)
			if s.prOpen {
				end(ev.Slot, ev.Cycle)
				s.prOpen = false
			}
			if s.runOpen {
				end(ev.Slot, ev.Cycle)
				s.runOpen = false
			}
			if s.reqOpen {
				end(ev.Slot, ev.Cycle)
				s.reqOpen = false
			}
			if ev.Kind == KindKill {
				instant("watchdog-kill", ev.Slot, ev.Cycle, ev.Arg, ev.Label)
			}
		default:
			instant(ev.Kind.String(), ev.Slot, ev.Cycle, ev.Arg, ev.Label)
		}
	}
	// Close anything the horizon truncated.
	for s := int32(0); s <= maxSlot; s++ {
		ss := st[s]
		if ss == nil {
			continue
		}
		for _, open := range []bool{ss.prOpen, ss.runOpen, ss.reqOpen} {
			if open {
				end(s, last)
			}
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
