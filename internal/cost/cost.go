// Package cost is the one cost-annotated view of a compiled instruction
// stream: INCA's §4.3 prices a preemption as t1 (run to the next interrupt
// point) + t2 (backup) + t4 (restore), and every component that needs one of
// those numbers — the compiler's placement DP and ResponseBound stamp, the
// IAU's preemption-cost and remaining-work queries, the predictive
// scheduler, the watchdog bound, the blocking bounds of the response-time
// analysis — reads it from here instead of walking the stream itself.
//
// One walk (Summarize) prices every instruction once. A Summary is what is
// left of that walk when positions do not matter: the VI sites, the real-only
// total and the largest single-instruction price. A Table adds the
// per-position prefixes and next-boundary lookups that make "what does
// preempting at pc cost" a constant-time read.
//
// internal/progcheck deliberately does not import this package: its
// RederiveBound is the independent reference the numbers here are checked
// against.
package cost

import "inca/internal/isa"

// Model prices instructions in accelerator cycles. accel.Config implements
// it; compiler.CostModel is an alias of it.
type Model interface {
	// XferCycles returns the cycle cost of moving n bytes to/from DDR.
	XferCycles(n uint32) uint64
	// InstrCycles returns the execution duration of one instruction; virtual
	// instructions are priced as the transfers they perform when an interrupt
	// materialises them.
	InstrCycles(p *isa.Program, in isa.Instruction) uint64
	// VirtualFetchCycles is the IAU overhead of skipping one virtual
	// instruction on the uninterrupted path.
	VirtualFetchCycles() uint64
}

// Site is one VI interrupt point (isa.Program.IsInterruptPoint) with the
// group of virtual instructions it leads: a Vir_SAVE and the Vir_LOAD_D
// restores after it, or a lone run of Vir_LOAD_D.
type Site struct {
	// Leader is the instruction index of the interrupt point; End is one past
	// the group's last member.
	Leader, End int
	// Real is the modeled cost of the real instructions before Leader.
	Real uint64
	// Backup is the cost of parking here: the Vir_SAVE transfer, 0 for a
	// restore-only (post-SAVE) site. Save-skip rewrites only reduce it.
	Backup      uint64
	BackupBytes uint64
	// Restore is the cost of replaying the group's Vir_LOAD_D members when
	// the parked task resumes.
	Restore uint64
	// Tail is the worst-case cost of the members after a Vir_SAVE leader (or
	// of the whole restore-only group) whichever way the IAU runs them: the
	// skip path charges the fetch, the resume replay charges the transfer.
	// A preemptor arriving just past the leader waits it out.
	Tail uint64
}

// Summary is the position-independent result of pricing a stream.
type Summary struct {
	// Sites lists the VI interrupt points in stream order.
	Sites []Site
	// Total is the modeled cost of every real instruction (END is free:
	// completion releases the accelerator).
	Total uint64
	// MaxInstr is the largest single-instruction price, virtual instructions
	// priced as the transfers they materialise into.
	MaxInstr uint64
}

// Summarize prices p's stream under m.
func Summarize(p *isa.Program, m Model) Summary {
	var s Summary
	walk(p, m, &s, nil)
	return s
}

// walk is the single pricing pass. Every instruction is priced once: real
// instructions cost InstrCycles in both flows; a virtual instruction costs
// the fetch in normal flow, nothing on the real-only axis, and its
// materialised transfer at a park or resume. With t non-nil the per-position
// prefixes are recorded as well.
func walk(p *isa.Program, m Model, s *Summary, t *Table) {
	fetch := m.VirtualFetchCycles()
	var flow uint64
	for i, in := range p.Instrs {
		if t != nil {
			t.flow[i], t.real[i] = flow, s.Total
		}
		if in.Op == isa.OpEnd {
			continue
		}
		c := m.InstrCycles(p, in)
		s.MaxInstr = max(s.MaxInstr, c)
		if !in.Op.Virtual() {
			flow += c
			s.Total += c
			continue
		}
		flow += fetch
		if p.IsInterruptPoint(i) {
			s.Sites = append(s.Sites, Site{Leader: i, Real: s.Total})
		}
		// A virtual instruction either leads its group or directly follows
		// another member of it, so the last site is the one it belongs to.
		st := &s.Sites[len(s.Sites)-1]
		st.End = i + 1
		if in.Op == isa.OpVirSave {
			st.Backup, st.BackupBytes = m.XferCycles(in.Len), uint64(in.Len)
		} else {
			st.Restore += c
			st.Tail += max(fetch, c)
		}
	}
	if t != nil {
		n := len(p.Instrs)
		t.flow[n], t.real[n] = flow, s.Total
	}
}

// ResponseBound returns the modeled worst-case preemption response of the
// stream: the maximum over all stream positions of (cycles to reach the next
// interrupt point) + (its backup cost), with END acting as a free boundary.
// Positions inside a group resume through its members, so each segment
// starts owing the previous site's Tail. For a stream with no sites it is
// the modeled completion time.
func (s Summary) ResponseBound() uint64 { return ResponseBound(s.Sites, s.Total) }

// ResponseBound is Summary.ResponseBound over an explicit site list — the
// compiler's VIBudget pass prices the subset of sites it keeps (dropping a
// site removes only virtual instructions, so the kept sites' Real and the
// total are unchanged).
func ResponseBound(sites []Site, total uint64) uint64 {
	var bound, pending, from uint64
	for _, st := range sites {
		bound = max(bound, pending+st.Real-from+st.Backup)
		pending, from = st.Tail, st.Real
	}
	return max(bound, pending+total-from)
}

// WorstPointGap returns the longest stretch of real-instruction cycles
// between consecutive interrupt points, including the backup at the closing
// point — the stream-level blocking bound of the VI method. Transfer overlap
// is ignored, making it a safe upper bound.
func (s Summary) WorstPointGap() uint64 {
	var worst, from uint64
	for _, st := range s.Sites {
		worst = max(worst, st.Real-from+st.Backup)
		from = st.Real
	}
	return max(worst, s.Total-from)
}

// Table is a Summary plus the per-position view of the same walk.
type Table struct {
	Summary
	// Prog is the program the table describes.
	Prog *isa.Program
	// flow[i] is the normal-flow cost of instructions [0, i): real
	// instructions at InstrCycles, virtual ones at the fetch. real[i] counts
	// the real instructions only. Both have len(Instrs)+1 entries.
	flow, real []uint64
	// nextPoint[i] is the index in Sites of the first interrupt point at or
	// after i, nextLayer[i] the first layer boundary at or after i; -1 when
	// the stream ends first.
	nextPoint, nextLayer []int32
}

// NewTable prices p's stream under m and indexes it by position.
func NewTable(p *isa.Program, m Model) *Table {
	n := len(p.Instrs)
	t := &Table{
		Prog:      p,
		flow:      make([]uint64, n+1),
		real:      make([]uint64, n+1),
		nextPoint: make([]int32, n+1),
		nextLayer: make([]int32, n+1),
	}
	walk(p, m, &t.Summary, t)
	t.nextPoint[n], t.nextLayer[n] = -1, -1
	site := len(t.Sites) - 1
	for i := n - 1; i >= 0; i-- {
		t.nextPoint[i], t.nextLayer[i] = t.nextPoint[i+1], t.nextLayer[i+1]
		if p.Instrs[i].Op == isa.OpEnd {
			// Nothing past completion is a boundary.
			t.nextPoint[i], t.nextLayer[i] = -1, -1
			continue
		}
		if site >= 0 && t.Sites[site].Leader == i {
			t.nextPoint[i] = int32(site)
			site--
		}
		if p.IsLayerBoundary(i) {
			t.nextLayer[i] = int32(i)
		}
	}
	return t
}

// Preempt is the modeled price of parking a task at the next boundary its
// interrupt method allows, from one stream position.
type Preempt struct {
	// WaitCycles models the time until the victim's next legal boundary (t1
	// of the paper's latency decomposition). When no boundary is left it is
	// the time until the victim completes.
	WaitCycles uint64
	// BackupCycles models the state-save transfer at that boundary (t2).
	BackupCycles uint64
	// RestoreCycles models the replay cost when the victim later resumes
	// (t4).
	RestoreCycles uint64
	// BackupBytes is the modeled backup traffic.
	BackupBytes uint64
	// Feasible is false when no legal boundary exists before the program
	// ends — preempting with this method is impossible from here.
	Feasible bool
}

// Response returns the modeled preemptor-visible latency: wait + backup.
func (c Preempt) Response() uint64 { return c.WaitCycles + c.BackupCycles }

// Total returns the modeled extra cycles the switch charges overall:
// backup + restore (the wait is work the victim performs anyway).
func (c Preempt) Total() uint64 { return c.BackupCycles + c.RestoreCycles }

// Remaining returns the normal-flow cycles from pc to the end of the stream.
func (t *Table) Remaining(pc int) uint64 { return t.flow[len(t.flow)-1] - t.flow[pc] }

// PreemptVI prices a VI preemption requested at pc: run to the next
// interrupt point, materialise its Vir_SAVE (nothing to save at a lone
// Vir_LOAD_D leader), replay the group's Vir_LOAD_Ds on resume.
func (t *Table) PreemptVI(pc int) Preempt {
	k := t.nextPoint[pc]
	if k < 0 {
		return Preempt{WaitCycles: t.Remaining(pc)}
	}
	st := &t.Sites[k]
	return Preempt{
		WaitCycles:    t.flow[st.Leader] - t.flow[pc],
		BackupCycles:  st.Backup,
		RestoreCycles: st.Restore,
		BackupBytes:   st.BackupBytes,
		Feasible:      true,
	}
}

// PreemptLayer prices a layer-by-layer preemption requested at pc: run to
// the next layer boundary; the next layer reloads through its own LOADs, so
// the switch itself is free.
func (t *Table) PreemptLayer(pc int) Preempt {
	b := t.nextLayer[pc]
	if b < 0 {
		return Preempt{WaitCycles: t.Remaining(pc)}
	}
	return Preempt{WaitCycles: t.flow[b] - t.flow[pc], Feasible: true}
}

// WorstLayerGap returns the longest stretch of real-instruction cycles
// between consecutive layer boundaries (switching is free there, so no
// backup term) — the blocking bound of the layer-by-layer method.
func (t *Table) WorstLayerGap() uint64 {
	var worst, from uint64
	for b := t.nextLayer[0]; b >= 0; b = t.nextLayer[b+1] {
		worst = max(worst, t.real[b]-from)
		from = t.real[b]
	}
	return max(worst, t.real[len(t.real)-1]-from)
}
