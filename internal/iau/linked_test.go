package iau_test

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

// TestLinkedMultiTenantArena is the full multi-tenant memory story: two
// tasks' programs are linked into ONE shared DDR image (the IAU offset
// registers' purpose), run functionally on one accelerator with the
// high-priority task repeatedly preempting the low-priority one — and both
// outputs are bit-exact against their references. Any address-relocation
// slip would corrupt the neighbour's featuremaps.
func TestLinkedMultiTenantArena(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3

	build := func(g *model.Network, seed uint64) (*isa.Program, *quant.Network) {
		q, err := quant.Synthesize(g, seed)
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
		return p, q
	}
	gHi := model.NewTinyCNN(3, 16, 16)
	gLo := model.NewResNetTiny()
	pHi, qHi := build(gHi, 5)
	pLo, qLo := build(gLo, 6)

	linked, total, err := isa.Link([]*isa.Program{pHi, pLo})
	if err != nil {
		t.Fatal(err)
	}
	if total < pHi.DDRBytes+pLo.DDRBytes {
		t.Fatalf("linked image %d smaller than parts %d+%d", total, pHi.DDRBytes, pLo.DDRBytes)
	}
	arena, err := isa.BuildLinkedArena(linked)
	if err != nil {
		t.Fatal(err)
	}

	inHi := tensor.NewInt8(gHi.InC, gHi.InH, gHi.InW)
	tensor.FillPattern(inHi, 1)
	inLo := tensor.NewInt8(gLo.InC, gLo.InH, gLo.InW)
	tensor.FillPattern(inLo, 2)
	if err := accel.WriteInputAt(arena, linked[0], inHi, 0); err != nil {
		t.Fatal(err)
	}
	if err := accel.WriteInputAt(arena, linked[1], inLo, 0); err != nil {
		t.Fatal(err)
	}

	u := iau.New(cfg, iau.PolicyVI)
	if err := u.Submit(1, &iau.Request{Label: "lo", Prog: linked[1], Arena: arena}); err != nil {
		t.Fatal(err)
	}
	// Several high-priority bursts against the same shared arena.
	for i := 0; i < 4; i++ {
		if err := u.SubmitAt(0, &iau.Request{Label: "hi", Prog: linked[0], Arena: arena}, uint64(2000+30000*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(u.Preemptions) == 0 {
		t.Fatal("no preemptions in the multi-tenant run")
	}

	wantHi, err := qHi.RunFinal(inHi)
	if err != nil {
		t.Fatal(err)
	}
	wantLo, err := qLo.RunFinal(inLo)
	if err != nil {
		t.Fatal(err)
	}
	gotHi, err := accel.ReadOutputAt(arena, linked[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	gotLo, err := accel.ReadOutputAt(arena, linked[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotHi, wantHi) {
		t.Error("high-priority tenant output corrupted in the shared arena")
	}
	if !reflect.DeepEqual(gotLo, wantLo) {
		t.Error("low-priority tenant output corrupted in the shared arena")
	}
}

func TestLinkErrors(t *testing.T) {
	if _, _, err := isa.Link(nil); err == nil {
		t.Error("empty link accepted")
	}
	if _, err := isa.BuildLinkedArena(nil); err == nil {
		t.Error("empty arena build accepted")
	}
}
