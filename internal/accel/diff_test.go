package accel_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/tensor"
)

// Differential tests: the row-sliced kernels (kernels.go) must be
// bit-for-bit identical to the scalar reference path (reference.go) over
// randomized layer configurations — stride/pad/kernel/groups/fused-pool/ReLU
// combinations, straight-line and under preemption — and byte-identical at
// any worker count. Cycle accounting must not depend on the datapath at all.

// diffCompile compiles g for functional execution on cfg, or returns nil if
// this random configuration is not compilable (the sweep just draws again).
func diffCompile(g *model.Network, cfg accel.Config, seed uint64) *isa.Program {
	if err := g.Validate(); err != nil {
		return nil
	}
	q, err := quant.Synthesize(g, seed)
	if err != nil {
		return nil
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	opt.EmitWeights = true
	p, err := compiler.Compile(q, opt)
	if err != nil {
		return nil
	}
	return p
}

// randomNet draws a small network mixing dense / pointwise / depthwise /
// fused-pool convolutions, standalone pools, and residual adds.
func randomNet(rng *rand.Rand, idx int) *model.Network {
	c := 1 + rng.Intn(6)
	h := 8 + 2*rng.Intn(7)
	w := 8 + 2*rng.Intn(7)
	n := model.New(fmt.Sprintf("rand%d", idx), c, h, w)
	cur := 0
	for i := 0; i < 1+rng.Intn(3); i++ {
		relu := rng.Intn(2) == 0
		switch rng.Intn(6) {
		case 0: // dense conv, varied kernel/stride/pad
			k := []int{1, 3, 5}[rng.Intn(3)]
			stride := 1 + rng.Intn(2)
			pad := rng.Intn(k/2 + 2) // includes pad > k/2 and pad 0 edge cases
			outC := 1 + rng.Intn(10)
			cur = n.Conv(fmt.Sprintf("conv%d", i), cur, outC, k, stride, pad, relu)
		case 1: // depthwise
			cur = n.DWConv(fmt.Sprintf("dw%d", i), cur, 3, 1+rng.Intn(2), 1, relu)
		case 2: // fused 2x2 max-pool on a stride-1 3x3 conv
			cur = n.Add(model.Layer{
				Name: fmt.Sprintf("convp%d", i), Kind: model.KindConv, Inputs: []int{cur},
				OutC: 1 + rng.Intn(8), KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 1,
				ReLU: relu, FusedPool: 2,
			})
		case 3: // standalone max-pool
			k := 2 + rng.Intn(2)
			cur = n.MaxPool(fmt.Sprintf("pool%d", i), cur, k, 2)
		case 4: // residual add of two shape-preserving branches
			outC := 1 + rng.Intn(8)
			a := n.Conv(fmt.Sprintf("res%da", i), cur, outC, 3, 1, 1, true)
			b := n.Conv(fmt.Sprintf("res%db", i), cur, outC, 1, 1, 0, false)
			// (b, a) order lets the Add fuse into conv b's epilogue;
			// the reversed order keeps the standalone Add layer.
			if rng.Intn(2) == 0 {
				cur = n.Residual(fmt.Sprintf("res%d", i), b, a, relu)
			} else {
				cur = n.Residual(fmt.Sprintf("res%d", i), a, b, relu)
			}
		case 5: // pointwise
			cur = n.Conv(fmt.Sprintf("pw%d", i), cur, 1+rng.Intn(12), 1, 1, 0, relu)
		}
	}
	return n
}

type diffRun struct {
	arena  []byte
	cycles uint64
	calc   uint64
	xfer   uint64
	hidden uint64
}

// execFull runs the whole stream functionally on a fresh arena.
func execFull(t *testing.T, p *isa.Program, g *model.Network, cfg accel.Config, reference bool, workers int) diffRun {
	t.Helper()
	cfg.Workers = workers
	arena, err := accel.NewArena(p)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.NewInt8(g.InC, g.InH, g.InW)
	tensor.FillPattern(in, 42)
	if err := accel.WriteInputAt(arena, p, in, 0); err != nil {
		t.Fatal(err)
	}
	eng := accel.NewEngine(cfg)
	defer eng.Close()
	eng.SetReferencePath(reference)
	r := diffRun{arena: arena}
	for _, ins := range p.Instrs {
		if ins.Op.Virtual() || ins.Op == isa.OpEnd {
			continue
		}
		c, err := eng.Exec(arena, p, ins, 0)
		if err != nil {
			t.Fatalf("%s (reference=%v workers=%d): exec %s: %v", p.Name, reference, workers, ins, err)
		}
		r.cycles += c
	}
	r.calc, r.xfer, r.hidden = eng.CycleStats()
	return r
}

func compareRuns(t *testing.T, name, label string, ref, got diffRun) {
	t.Helper()
	if !bytes.Equal(ref.arena, got.arena) {
		n, first := 0, -1
		for i := range ref.arena {
			if ref.arena[i] != got.arena[i] {
				n++
				if first < 0 {
					first = i
				}
			}
		}
		t.Errorf("%s: %s arena differs from reference at %d bytes (first at %d)", name, label, n, first)
	}
	if ref.cycles != got.cycles {
		t.Errorf("%s: %s consumed %d cycles, reference %d", name, label, got.cycles, ref.cycles)
	}
	if ref.calc != got.calc || ref.xfer != got.xfer || ref.hidden != got.hidden {
		t.Errorf("%s: %s CycleStats (%d,%d,%d) != reference (%d,%d,%d)",
			name, label, got.calc, got.xfer, got.hidden, ref.calc, ref.xfer, ref.hidden)
	}
}

// TestDatapathDifferential sweeps randomized layer configurations and
// asserts the optimized datapath matches the scalar reference bit-for-bit,
// at several worker counts, with identical cycle accounting.
func TestDatapathDifferential(t *testing.T) {
	cfgs := []accel.Config{accel.Big(), accel.Big()}
	cfgs[0].ParaIn, cfgs[0].ParaOut, cfgs[0].ParaHeight = 4, 4, 3
	cfgs[1].ParaIn, cfgs[1].ParaOut, cfgs[1].ParaHeight = 8, 8, 4
	rng := rand.New(rand.NewSource(20260805))
	const wantCases = 24
	cases := 0
	for attempt := 0; attempt < 400 && cases < wantCases; attempt++ {
		g := randomNet(rng, attempt)
		cfg := cfgs[attempt%len(cfgs)]
		p := diffCompile(g, cfg, uint64(attempt)+1)
		if p == nil {
			continue
		}
		cases++
		ref := execFull(t, p, g, cfg, true, 1)
		for _, workers := range []int{1, 3} {
			got := execFull(t, p, g, cfg, false, workers)
			compareRuns(t, g.Name, fmt.Sprintf("optimized(workers=%d)", workers), ref, got)
		}
		if t.Failed() {
			t.Fatalf("differential mismatch on network %d: %s", attempt, g.Summary())
		}
	}
	if cases < wantCases {
		t.Fatalf("only %d/%d random configs compiled — generator drifted from compiler constraints", cases, wantCases)
	}
}

// TestDatapathDifferentialZoo pins the fixed functional-zoo networks
// (residual add + pool, depthwise, fused pool) that the random sweep only
// hits probabilistically.
func TestDatapathDifferentialZoo(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3
	for _, g := range []*model.Network{
		model.NewResNetTiny(), model.NewMobileNetTiny(), model.NewPoolNet(), model.NewTinyCNN(3, 14, 18),
	} {
		p := diffCompile(g, cfg, 9)
		if p == nil {
			t.Fatalf("%s failed to compile", g.Name)
		}
		ref := execFull(t, p, g, cfg, true, 1)
		for _, workers := range []int{1, 2, 4, 7} {
			compareRuns(t, g.Name, fmt.Sprintf("optimized(workers=%d)", workers),
				ref, execFull(t, p, g, cfg, false, workers))
		}
	}
}

// preemptRun executes a victim+probe schedule under the given policy and
// returns the victim arena plus scheduling observables.
func preemptRun(t *testing.T, policy iau.Policy, cfg accel.Config, victim, probe *isa.Program,
	vg, pg *model.Network, reqCycle uint64, reference bool) (varena []byte, now uint64, preempts int, cost uint64) {
	t.Helper()
	u := iau.New(cfg, policy)
	u.Eng.SetReferencePath(reference)
	mkArena := func(p *isa.Program, g *model.Network, seed uint64) []byte {
		arena, err := accel.NewArena(p)
		if err != nil {
			t.Fatal(err)
		}
		in := tensor.NewInt8(g.InC, g.InH, g.InW)
		tensor.FillPattern(in, seed)
		if err := accel.WriteInputAt(arena, p, in, 0); err != nil {
			t.Fatal(err)
		}
		return arena
	}
	varena = mkArena(victim, vg, 5)
	parena := mkArena(probe, pg, 6)
	if err := u.Submit(1, &iau.Request{Label: "victim", Prog: victim, Arena: varena}); err != nil {
		t.Fatal(err)
	}
	if err := u.SubmitAt(0, &iau.Request{Label: "probe", Prog: probe, Arena: parena}, reqCycle); err != nil {
		t.Fatal(err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatalf("policy %v reference=%v: %v", policy, reference, err)
	}
	for _, pr := range u.Preemptions {
		cost += pr.Cost()
	}
	return varena, u.Now, len(u.Preemptions), cost
}

// TestDatapathDifferentialPreemption proves bit-exactness under preemption:
// the Vir_SAVE/Vir_LOAD_D replay (PolicyVI) and the snapshot spill/refill
// (PolicyCPULike) produce reference-identical victim outputs and identical
// schedule timing on both datapaths.
func TestDatapathDifferentialPreemption(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3
	probeNet := model.NewTinyCNN(3, 8, 8)
	probe := diffCompile(probeNet, cfg, 2)
	if probe == nil {
		t.Fatal("probe failed to compile")
	}
	for _, vg := range []*model.Network{
		model.NewResNetTiny(), model.NewMobileNetTiny(), model.NewPoolNet(),
	} {
		victim := diffCompile(vg, cfg, 3)
		if victim == nil {
			t.Fatalf("%s failed to compile", vg.Name)
		}
		// Victim-only horizon, used to land the probe mid-execution.
		solo := func() uint64 {
			u := iau.New(cfg, iau.PolicyNone)
			arena, err := accel.NewArena(victim)
			if err != nil {
				t.Fatal(err)
			}
			if err := u.Submit(1, &iau.Request{Label: "solo", Prog: victim, Arena: arena}); err != nil {
				t.Fatal(err)
			}
			if err := u.RunAll(); err != nil {
				t.Fatal(err)
			}
			return u.Now
		}()
		for _, policy := range []iau.Policy{iau.PolicyVI, iau.PolicyCPULike} {
			for _, frac := range []uint64{5, 3, 2} {
				reqCycle := solo / frac
				refArena, refEnd, refPre, refCost := preemptRun(t, policy, cfg, victim, probe, vg, probeNet, reqCycle, true)
				gotArena, gotEnd, gotPre, gotCost := preemptRun(t, policy, cfg, victim, probe, vg, probeNet, reqCycle, false)
				if refPre == 0 {
					t.Fatalf("%s policy %v req@%d: schedule did not preempt — probe landed too late", vg.Name, policy, reqCycle)
				}
				if !bytes.Equal(refArena, gotArena) {
					t.Errorf("%s policy %v req@%d: optimized victim arena differs from reference", vg.Name, policy, reqCycle)
				}
				if refEnd != gotEnd || refPre != gotPre || refCost != gotCost {
					t.Errorf("%s policy %v req@%d: schedule diverged (end %d/%d, preemptions %d/%d, cost %d/%d)",
						vg.Name, policy, reqCycle, gotEnd, refEnd, gotPre, refPre, gotCost, refCost)
				}
			}
		}
	}
}

// TestSnapshotRoundTripNoAlloc: steady-state CPU-like backup/restore must
// not touch the heap once the free list is primed.
func TestSnapshotRoundTripNoAlloc(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3
	g := model.NewTinyCNN(3, 12, 16)
	p := diffCompile(g, cfg, 3)
	if p == nil {
		t.Fatal("failed to compile")
	}
	arena, err := accel.NewArena(p)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.NewInt8(3, 12, 16)
	tensor.FillPattern(in, 1)
	if err := accel.WriteInputAt(arena, p, in, 0); err != nil {
		t.Fatal(err)
	}
	eng := accel.NewEngine(cfg)
	// Run into the middle of the stream so all tiles are live.
	for i := 0; i < len(p.Instrs)/2; i++ {
		ins := p.Instrs[i]
		if ins.Op.Virtual() || ins.Op == isa.OpEnd {
			continue
		}
		if _, err := eng.Exec(arena, p, ins, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Prime the free list.
	s := eng.Snapshot()
	eng.Restore(s)
	eng.ReleaseSnapshot(s)
	if eng.SnapFreeLen() == 0 {
		t.Fatal("released snapshot not retained for reuse")
	}
	allocs := testing.AllocsPerRun(50, func() {
		s := eng.Snapshot()
		eng.Restore(s)
		eng.ReleaseSnapshot(s)
	})
	if allocs != 0 {
		t.Fatalf("snapshot round trip allocates %v objects per interrupt", allocs)
	}
}
