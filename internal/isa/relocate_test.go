package isa_test

import (
	"reflect"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/tensor"
)

// TestRelocateFunctionalEquivalence: a relocated program run in a larger
// arena produces exactly the output of the original — the property the
// IAU's InputOffset/OutputOffset registers rely on.
func TestRelocateFunctionalEquivalence(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3
	g := model.NewResNetTiny()
	q, err := quant.Synthesize(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	opt.EmitWeights = true
	p, err := compiler.Compile(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	input := tensor.NewInt8(g.InC, g.InH, g.InW)
	tensor.FillPattern(input, 11)

	run := func(prog *isa.Program, pad uint32) *tensor.Int8 {
		arena := make([]byte, prog.DDRBytes)
		copy(arena[prog.WeightsAddr:], prog.Weights)
		for i, v := range input.Data {
			arena[int(prog.InputAddr)+i] = byte(v)
		}
		u := iau.New(cfg, iau.PolicyVI)
		if err := u.Submit(1, &iau.Request{Label: "r", Prog: prog, Arena: arena}); err != nil {
			t.Fatal(err)
		}
		if err := u.RunAll(); err != nil {
			t.Fatal(err)
		}
		out, err := accel.ReadOutputAt(arena, prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		_ = pad
		return out
	}

	base := run(p, 0)
	for _, off := range []uint32{64, 4096, 1 << 20} {
		rel, err := isa.Relocate(p, off)
		if err != nil {
			t.Fatalf("relocate by %d: %v", off, err)
		}
		if err := rel.Validate(); err != nil {
			t.Fatalf("relocated program invalid: %v", err)
		}
		if got := run(rel, off); !reflect.DeepEqual(got, base) {
			t.Fatalf("output differs after relocation by %d", off)
		}
	}
}

func TestRelocateRejectsBadBases(t *testing.T) {
	p := sampleProgram()
	if _, err := isa.Relocate(p, 7); err == nil {
		t.Error("unaligned base accepted")
	}
	if _, err := isa.Relocate(p, 0xFFFFFFC0); err == nil {
		t.Error("overflowing base accepted")
	}
}
