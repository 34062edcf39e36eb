package iau_test

import (
	"reflect"
	"testing"

	"inca/internal/accel"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/tensor"
)

// TestMigrationBitExact: a functionally executing request preempted on one
// IAU and resumed on another through StealPreempted/InjectPreempted produces
// exactly the reference output — the shared-DDR property that makes VI-state
// migration free, and the primitive internal/cluster's steals are built on.
func TestMigrationBitExact(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3
	// Build a functional victim.
	g := model.NewResNetTiny()
	victim, q := buildFunctional(t, g, cfg, true, 21)
	input := tensor.NewInt8(g.InC, g.InH, g.InW)
	tensor.FillPattern(input, 77)
	want, err := q.RunFinal(input)
	if err != nil {
		t.Fatal(err)
	}
	arena, err := accel.NewArena(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := accel.WriteInputAt(arena, victim, input, 0); err != nil {
		t.Fatal(err)
	}

	// Core A runs the victim; a probe preempts it; we steal and finish it
	// on core B.
	a := iau.New(cfg, iau.PolicyVI)
	b := iau.New(cfg, iau.PolicyVI)
	probe := timingProg(t, model.NewTinyCNN(3, 12, 12), cfg, false)
	if err := a.Submit(1, &iau.Request{Label: "victim", Prog: victim, Arena: arena}); err != nil {
		t.Fatal(err)
	}
	if err := a.SubmitAt(0, &iau.Request{Label: "probe", Prog: probe}, 5_000); err != nil {
		t.Fatal(err)
	}
	migrated := false
	a.OnPreempt = func(p *iau.Preemption) {
		tok, err := a.StealPreempted(p.Victim)
		if err != nil {
			t.Fatalf("steal: %v", err)
		}
		if err := b.Run(p.BackupDoneCycle); err != nil {
			t.Fatal(err)
		}
		if err := b.InjectPreempted(1, tok); err != nil {
			t.Fatalf("inject: %v", err)
		}
		migrated = true
	}
	if err := a.RunAll(); err != nil {
		t.Fatal(err)
	}
	if err := b.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !migrated {
		t.Fatal("no preemption/migration occurred")
	}
	if len(b.Completions) != 1 || b.Completions[0].Req.Label != "victim" {
		t.Fatalf("victim did not complete on core B: %+v", b.Completions)
	}
	got, err := accel.ReadOutputAt(arena, victim, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("migrated execution differs from the reference output")
	}
}

func TestInjectValidation(t *testing.T) {
	cfg := accel.Big()
	a := iau.New(cfg, iau.PolicyVI)
	b := iau.New(cfg, iau.PolicyLayerByLayer)
	if _, err := a.StealPreempted(1); err == nil {
		t.Error("steal from an idle slot accepted")
	}
	if err := a.InjectPreempted(1, nil); err == nil {
		t.Error("nil token accepted")
	}
	// Policy mismatch.
	p := timingProg(t, model.NewVGG16(3, 60, 80), cfg, true)
	probe := timingProg(t, model.NewTinyCNN(3, 12, 12), cfg, false)
	if err := a.Submit(1, &iau.Request{Label: "v", Prog: p}); err != nil {
		t.Fatal(err)
	}
	if err := a.SubmitAt(0, &iau.Request{Label: "p", Prog: probe}, 50_000); err != nil {
		t.Fatal(err)
	}
	var tok *iau.ResumeToken
	a.OnPreempt = func(pr *iau.Preemption) {
		if tok == nil {
			tok, _ = a.StealPreempted(pr.Victim)
		}
	}
	if err := a.RunAll(); err != nil {
		t.Fatal(err)
	}
	if tok == nil {
		t.Fatal("no token stolen")
	}
	if err := b.InjectPreempted(1, tok); err == nil {
		t.Error("cross-policy injection accepted")
	}
}
