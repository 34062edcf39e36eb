package cost_test

import (
	"reflect"
	"testing"

	"inca/internal/cost"
	"inca/internal/isa"
)

// unitModel prices every transfer at its length, every CALC at 10 cycles
// and a virtual skip at 1 cycle, so expected values can be read off a stream.
type unitModel struct{}

func (unitModel) XferCycles(n uint32) uint64 { return uint64(n) }
func (unitModel) InstrCycles(_ *isa.Program, in isa.Instruction) uint64 {
	switch in.Op {
	case isa.OpCalcI, isa.OpCalcF:
		return 10
	case isa.OpEnd:
		return 0
	}
	return uint64(in.Len)
}
func (unitModel) VirtualFetchCycles() uint64 { return 1 }

func ins(op isa.Op, layer uint16, n uint32) isa.Instruction {
	return isa.Instruction{Op: op, Layer: layer, Len: n}
}

// The stream the isa mid-group regression uses, with lengths: two layers, a
// Vir_SAVE-led group with two restores (one of them empty, so its skip costs
// more than its replay) and a restore-only group after a SAVE.
func fixture() *isa.Program {
	return &isa.Program{Instrs: []isa.Instruction{
		ins(isa.OpLoadD, 0, 5),    // 0  real 5
		ins(isa.OpCalcF, 0, 0),    // 1  real 10
		ins(isa.OpVirSave, 0, 7),  // 2  <- point: backup 7
		ins(isa.OpVirLoadD, 0, 4), // 3     restore 4, tail 4
		ins(isa.OpVirLoadD, 0, 0), // 4     restore 0, tail 1 (the skip)
		ins(isa.OpCalcF, 0, 0),    // 5  real 10
		ins(isa.OpSave, 0, 20),    // 6  real 20
		ins(isa.OpVirLoadD, 1, 3), // 7  <- point and layer boundary: restore 3
		ins(isa.OpVirLoadD, 1, 2), // 8     restore 2
		ins(isa.OpLoadD, 1, 6),    // 9  real 6
		ins(isa.OpCalcF, 1, 0),    // 10 real 10
		ins(isa.OpSave, 1, 30),    // 11 real 30
		ins(isa.OpEnd, 0, 0),      // 12
	}}
}

func TestSummarize(t *testing.T) {
	s := cost.Summarize(fixture(), unitModel{})
	want := []cost.Site{
		{Leader: 2, End: 5, Real: 15, Backup: 7, BackupBytes: 7, Restore: 4, Tail: 5},
		{Leader: 7, End: 9, Real: 45, Restore: 5, Tail: 5},
	}
	if !reflect.DeepEqual(s.Sites, want) {
		t.Errorf("sites = %+v\nwant   %+v", s.Sites, want)
	}
	if s.Total != 91 || s.MaxInstr != 30 {
		t.Errorf("Total %d MaxInstr %d, want 91 and 30", s.Total, s.MaxInstr)
	}
	// Segments: start→2 = 15+7; 2→7 = tail 5 + 30; 7→END = tail 5 + 46.
	if got := s.ResponseBound(); got != 51 {
		t.Errorf("ResponseBound = %d, want 51", got)
	}
	if got := cost.ResponseBound(s.Sites[:1], s.Total); got != 5+76 {
		t.Errorf("ResponseBound of the first site alone = %d, want 81", got)
	}
	// Gaps carry no tails: 15+7, 30, 46.
	if got := s.WorstPointGap(); got != 46 {
		t.Errorf("WorstPointGap = %d, want 46", got)
	}
	if got := cost.Summarize(&isa.Program{}, unitModel{}); got.Total != 0 || got.ResponseBound() != 0 || len(got.Sites) != 0 {
		t.Errorf("empty program summarizes to %+v", got)
	}
}

func TestTableQueries(t *testing.T) {
	tab := cost.NewTable(fixture(), unitModel{})
	if got := tab.Remaining(0); got != 91+5 { // five virtual skips
		t.Errorf("Remaining(0) = %d, want 96", got)
	}
	if got := tab.Remaining(12); got != 0 {
		t.Errorf("Remaining(END) = %d, want 0", got)
	}
	if got := tab.WorstLayerGap(); got != 46 { // layer 0 is 45 real cycles, layer 1 is 46
		t.Errorf("WorstLayerGap = %d, want 46", got)
	}
	for _, tc := range []struct {
		pc        int
		vi, layer cost.Preempt
	}{
		{0, cost.Preempt{WaitCycles: 15, BackupCycles: 7, RestoreCycles: 4, BackupBytes: 7, Feasible: true},
			cost.Preempt{WaitCycles: 48, Feasible: true}},
		{2, cost.Preempt{BackupCycles: 7, RestoreCycles: 4, BackupBytes: 7, Feasible: true},
			cost.Preempt{WaitCycles: 33, Feasible: true}},
		// Mid-group: the leader is behind, the next point is the post-SAVE one.
		{3, cost.Preempt{WaitCycles: 32, RestoreCycles: 5, Feasible: true},
			cost.Preempt{WaitCycles: 32, Feasible: true}},
		{7, cost.Preempt{RestoreCycles: 5, Feasible: true}, cost.Preempt{Feasible: true}},
		// Past the last boundary the wait is the run to completion.
		{8, cost.Preempt{WaitCycles: 47}, cost.Preempt{WaitCycles: 47}},
		{12, cost.Preempt{}, cost.Preempt{}},
	} {
		if got := tab.PreemptVI(tc.pc); got != tc.vi {
			t.Errorf("PreemptVI(%d) = %+v, want %+v", tc.pc, got, tc.vi)
		}
		if got := tab.PreemptLayer(tc.pc); got != tc.layer {
			t.Errorf("PreemptLayer(%d) = %+v, want %+v", tc.pc, got, tc.layer)
		}
	}
	if c := tab.PreemptVI(0); c.Response() != 22 || c.Total() != 11 {
		t.Errorf("Response %d Total %d, want 22 and 11", c.Response(), c.Total())
	}
}

// TestTableUnterminatedStream: a stream cut before END (the shapes
// isa.InterruptPoints is tested on) still indexes without a fault, and a
// leading Vir_LOAD_D leads its own group.
func TestTableUnterminatedStream(t *testing.T) {
	p := &isa.Program{Instrs: []isa.Instruction{
		ins(isa.OpVirLoadD, 0, 2), ins(isa.OpVirLoadD, 0, 3), ins(isa.OpVirSave, 0, 4), ins(isa.OpVirLoadD, 0, 5),
	}}
	tab := cost.NewTable(p, unitModel{})
	want := []cost.Site{
		{Leader: 0, End: 2, Restore: 5, Tail: 5},
		{Leader: 2, End: 4, Backup: 4, BackupBytes: 4, Restore: 5, Tail: 5},
	}
	if !reflect.DeepEqual(tab.Sites, want) {
		t.Errorf("sites = %+v\nwant   %+v", tab.Sites, want)
	}
	if got := tab.PreemptVI(1); got != (cost.Preempt{WaitCycles: 1, BackupCycles: 4, RestoreCycles: 5, BackupBytes: 4, Feasible: true}) {
		t.Errorf("PreemptVI(1) = %+v", got)
	}
	if got := tab.PreemptVI(3); got.Feasible || got.WaitCycles != 1 {
		t.Errorf("PreemptVI(3) = %+v, want infeasible with the last skip to run", got)
	}
}
