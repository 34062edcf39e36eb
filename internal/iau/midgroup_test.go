package iau_test

import (
	"reflect"
	"testing"

	"inca/internal/accel"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/tensor"
)

// TestNoParkOnMidGroupRestore is the minimized regression for a bug the
// preemption fuzzer surfaced: residual (Add) layers restore two inputs, so a
// backup/restore group carries two consecutive Vir_LOAD_D. The VI boundary
// check used to accept the second one as a park point — skipping the
// Vir_SAVE backup and, on resume, the first input's restore, which the
// engine then rejected as a missing-restore residency violation. Aim an
// interfering request at the exact solo-run cycle of every mid-group
// Vir_LOAD_D and require the run to complete with the uninterrupted output.
func TestNoParkOnMidGroupRestore(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3

	g := model.New("midgroup", 1, 15, 16)
	a := g.Conv("a", 0, 5, 3, 1, 1, true)
	b := g.Conv("b", 0, 5, 1, 1, 0, false)
	g.Residual("res", a, b, true)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	victim, _ := buildFunctional(t, g, cfg, true, 31)
	probeNet := model.NewTinyCNN(2, 8, 10)
	probe, _ := buildFunctional(t, probeNet, cfg, true, 32)

	in := tensor.NewInt8(g.InC, g.InH, g.InW)
	tensor.FillPattern(in, 41)
	want, _ := runOnce(t, cfg, iau.PolicyNone, victim, in)
	probeIn := tensor.NewInt8(probeNet.InC, probeNet.InH, probeNet.InW)
	tensor.FillPattern(probeIn, 42)

	// Solo start cycle of every instruction, replicating the IAU's timing:
	// virtuals cost a fetch, real instructions their engine cycles.
	eng := accel.NewEngine(cfg)
	starts := make([]uint64, len(victim.Instrs))
	var now uint64
	for i, ins := range victim.Instrs {
		starts[i] = now
		if ins.Op == isa.OpEnd {
			break
		}
		if ins.Op.Virtual() {
			now += uint64(cfg.FetchCycles)
			continue
		}
		c, _ := eng.Exec(nil, victim, ins, 0)
		now += c
	}
	eng.Close()

	tested := 0
	for pc := 1; pc < len(victim.Instrs); pc++ {
		if victim.Instrs[pc].Op != isa.OpVirLoadD || victim.Instrs[pc-1].Op != isa.OpVirLoadD {
			continue
		}
		if tested++; tested > 12 {
			break // a dozen mid-group positions is plenty
		}
		arena, err := accel.NewArena(victim)
		if err != nil {
			t.Fatal(err)
		}
		if err := accel.WriteInputAt(arena, victim, in, 0); err != nil {
			t.Fatal(err)
		}
		parena, err := accel.NewArena(probe)
		if err != nil {
			t.Fatal(err)
		}
		if err := accel.WriteInputAt(parena, probe, probeIn, 0); err != nil {
			t.Fatal(err)
		}
		u := iau.New(cfg, iau.PolicyVI)
		var parked []int
		u.OnPreempt = func(pr *iau.Preemption) {
			parked = append(parked, u.Registers(pr.Victim).InstrAddr)
		}
		if err := u.Submit(2, &iau.Request{Label: "victim", Prog: victim, Arena: arena}); err != nil {
			t.Fatal(err)
		}
		if err := u.SubmitAt(1, &iau.Request{Label: "probe", Prog: probe, Arena: parena}, starts[pc]); err != nil {
			t.Fatal(err)
		}
		if err := u.RunAll(); err != nil {
			t.Fatalf("probe at mid-group pc %d (cycle %d): %v", pc, starts[pc], err)
		}
		for _, at := range parked {
			if at > 0 && victim.Instrs[at].Op == isa.OpVirLoadD && victim.Instrs[at-1].Op == isa.OpVirLoadD {
				t.Fatalf("victim parked at mid-group restore pc %d", at)
			}
		}
		got, err := accel.ReadOutputAt(arena, victim, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("probe at mid-group pc %d changed the victim's output", pc)
		}
		u.Eng.Close()
	}
	if tested == 0 {
		t.Fatal("compiled stream has no mid-group Vir_LOAD_D — residual restore groups missing")
	}
}
