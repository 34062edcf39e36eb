package iau_test

import (
	"reflect"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/fault"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/tensor"
)

// buildBatched compiles a functional batched plan for the network.
func buildBatched(t *testing.T, g *model.Network, cfg accel.Config, batch int, seed uint64) (*isa.Program, *quant.Network) {
	t.Helper()
	q, err := quant.Synthesize(g, seed)
	if err != nil {
		t.Fatalf("synthesize %s: %v", g.Name, err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	opt.EmitWeights = true
	opt.Batch = batch
	p, err := compiler.Compile(q, opt)
	if err != nil {
		t.Fatalf("compile %s batch=%d: %v", g.Name, batch, err)
	}
	return p, q
}

// batchInputs builds batch distinct input planes and writes them into a
// fresh arena for the program.
func batchInputs(t *testing.T, p *isa.Program, g *model.Network, batch int) ([]byte, []*tensor.Int8) {
	t.Helper()
	arena, err := accel.NewArena(p)
	if err != nil {
		t.Fatalf("arena: %v", err)
	}
	inputs := make([]*tensor.Int8, batch)
	for b := range inputs {
		inputs[b] = tensor.NewInt8(g.InC, g.InH, g.InW)
		tensor.FillPattern(inputs[b], 0x5EED^(uint64(b)*0x9E37))
		if err := accel.WriteInputAt(arena, p, inputs[b], b); err != nil {
			t.Fatalf("write input %d: %v", b, err)
		}
	}
	return arena, inputs
}

// checkBatchOutputs asserts every element's output plane is bit-identical to
// the quantized reference run on that element alone.
func checkBatchOutputs(t *testing.T, arena []byte, p *isa.Program, vq *quant.Network, inputs []*tensor.Int8) {
	t.Helper()
	for b, in := range inputs {
		want, err := vq.RunFinal(in)
		if err != nil {
			t.Fatalf("reference element %d: %v", b, err)
		}
		got, err := accel.ReadOutputAt(arena, p, b)
		if err != nil {
			t.Fatalf("read output %d: %v", b, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch element %d differs from single-image reference", b)
		}
	}
}

// TestMidBatchParkTokenAndMigration: a batched victim preempted between
// batch elements parks at a VI interrupt point inside the batch iteration;
// injecting its ResumeToken into a different slot resumes exactly the
// remaining elements and every output plane stays bit-exact.
func TestMidBatchParkTokenAndMigration(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3

	const batch = 4
	victim := model.New("bvictim", 6, 12, 12)
	victim.Conv("c0", 0, 12, 3, 1, 1, true)
	victim.Conv("c1", 1, 8, 3, 1, 1, false)
	preemptor := model.NewTinyCNN(3, 16, 16)

	vp, vq := buildBatched(t, victim, cfg, batch, 21)
	pp, _ := buildFunctional(t, preemptor, cfg, true, 23)

	varena, inputs := batchInputs(t, vp, victim, batch)
	pin := tensor.NewInt8(preemptor.InC, preemptor.InH, preemptor.InW)
	tensor.FillPattern(pin, 6)

	// Walk the preemption boundary across the victim's runtime until one
	// parks between batch elements (resumes on element > 0): batched plans
	// place an interrupt point after every per-element SAVE, so mid-batch
	// parks are the common case, but early boundaries can land on an
	// out-group edge.
	migrated := false
	for off := uint64(800); off < 60_000 && !migrated; off += 977 {
		varena2 := append([]byte(nil), varena...)
		u := iau.New(cfg, iau.PolicyVI)
		vr := &iau.Request{Label: "victim", Prog: vp, Arena: varena2}
		if err := u.Submit(2, vr); err != nil {
			t.Fatal(err)
		}
		parena, err := accel.NewArena(pp)
		if err != nil {
			t.Fatal(err)
		}
		if err := accel.WriteInputAt(parena, pp, pin, 0); err != nil {
			t.Fatal(err)
		}
		if err := u.SubmitAt(0, &iau.Request{Label: "p", Prog: pp, Arena: parena}, off); err != nil {
			t.Fatal(err)
		}
		var tok *iau.ResumeToken
		bat := 0
		u.OnPreempt = func(pr *iau.Preemption) {
			if tok != nil {
				return
			}
			bat = resumeBatch(vp, pr.VictimPC)
			st, err := u.StealPreempted(pr.Victim)
			if err != nil {
				t.Fatalf("steal: %v", err)
			}
			tok = st
			if err := u.InjectPreempted(3, tok); err != nil {
				t.Fatalf("inject: %v", err)
			}
		}
		if err := u.RunAll(); err != nil {
			t.Fatal(err)
		}
		if tok == nil || bat == 0 {
			continue // parked at an element-0 boundary; try the next offset
		}
		migrated = true
		if len(u.Completions) != 2 {
			t.Fatalf("%d completions, want 2", len(u.Completions))
		}
		checkBatchOutputs(t, varena2, vp, vq, inputs)
	}
	if !migrated {
		t.Fatal("no preemption parked between batch elements across the offset sweep")
	}
}

// resumeBatch is the batch element a victim parked at pc resumes on: the Bat
// field of the first real (non-virtual) instruction at or after pc.
func resumeBatch(p *isa.Program, pc int) int {
	for ; pc < len(p.Instrs) && p.Instrs[pc].Op != isa.OpEnd; pc++ {
		if !p.Instrs[pc].Op.Virtual() {
			return int(p.Instrs[pc].Bat)
		}
	}
	return 0
}

// TestMidBatchCorruptSnapshotRecoversBitExact: with every CPU-like snapshot
// of a batched victim corrupted in DDR (the snapshot now carries per-element
// window registers and the accumulator's batch index in its checksum), the
// CRC check detects each corruption at restore, the victim re-executes, and
// every batch element's output is still bit-identical to the single-image
// reference.
func TestMidBatchCorruptSnapshotRecoversBitExact(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3

	const batch = 4
	victim := model.New("bvictim", 4, 10, 10)
	victim.Conv("c0", 0, 10, 3, 1, 1, true)
	victim.Conv("c1", 1, 6, 1, 1, 0, false)
	preemptor := model.NewTinyCNN(3, 16, 16)

	vp, vq := buildBatched(t, victim, cfg, batch, 31)
	pp, _ := buildFunctional(t, preemptor, cfg, true, 33)

	varena, inputs := batchInputs(t, vp, victim, batch)
	pin := tensor.NewInt8(preemptor.InC, preemptor.InH, preemptor.InW)
	tensor.FillPattern(pin, 6)

	u := iau.New(cfg, iau.PolicyCPULike)
	u.Faults = fault.New(7)
	u.Faults.SetRate(fault.SiteBackup, 1.0)
	vr := &iau.Request{Label: "victim", Prog: vp, Arena: varena}
	if err := u.Submit(2, vr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && vr.DoneCycle == 0; i++ {
		parena, err := accel.NewArena(pp)
		if err != nil {
			t.Fatal(err)
		}
		if err := accel.WriteInputAt(parena, pp, pin, 0); err != nil {
			t.Fatal(err)
		}
		at := u.Now + 1200 + uint64(i*191)
		if err := u.SubmitAt(0, &iau.Request{Label: "p", Prog: pp, Arena: parena}, at); err != nil {
			t.Fatal(err)
		}
		for len(u.Completions) < i+1 && u.Pending() {
			if err := u.Run(u.Now + 2000); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}

	if u.Fault.CorruptedRestores == 0 {
		t.Fatal("no corrupted restore detected despite rate 1.0")
	}
	if vr.Restarts != vr.Corrupted {
		t.Errorf("%d corruptions but %d restarts", vr.Corrupted, vr.Restarts)
	}
	checkBatchOutputs(t, varena, vp, vq, inputs)
}
