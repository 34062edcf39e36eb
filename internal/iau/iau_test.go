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

// buildFunctional compiles a network for functional execution on cfg.
func buildFunctional(t testing.TB, g *model.Network, cfg accel.Config, vi bool, seed uint64) (*isa.Program, *quant.Network) {
	t.Helper()
	q, err := quant.Synthesize(g, seed)
	if err != nil {
		t.Fatalf("synthesize %s: %v", g.Name, err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIIf(vi)
	opt.EmitWeights = true
	p, err := compiler.Compile(q, opt)
	if err != nil {
		t.Fatalf("compile %s: %v", g.Name, err)
	}
	return p, q
}

func runOnce(t *testing.T, cfg accel.Config, policy iau.Policy, p *isa.Program, input *tensor.Int8) (*tensor.Int8, *iau.IAU) {
	t.Helper()
	arena, err := accel.NewArena(p)
	if err != nil {
		t.Fatalf("arena: %v", err)
	}
	if err := accel.WriteInputAt(arena, p, input, 0); err != nil {
		t.Fatalf("write input: %v", err)
	}
	u := iau.New(cfg, policy)
	if err := u.Submit(1, &iau.Request{Label: "solo", Prog: p, Arena: arena}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatalf("run: %v", err)
	}
	out, err := accel.ReadOutputAt(arena, p, 0)
	if err != nil {
		t.Fatalf("read output: %v", err)
	}
	return out, u
}

// TestFunctionalMatchesReference proves the tiled, buffered accelerator
// datapath computes exactly what the plain reference executor computes.
func TestFunctionalMatchesReference(t *testing.T) {
	nets := []*model.Network{
		model.NewTinyCNN(3, 24, 32),
		model.NewMobileNetTiny(),
		model.NewResNetTiny(),
		model.NewPoolNet(),
	}
	for _, g := range nets {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			cfg := accel.Big()
			cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3 // force multi-group tiling
			p, q := buildFunctional(t, g, cfg, true, 7)
			input := tensor.NewInt8(g.InC, g.InH, g.InW)
			tensor.FillPattern(input, 99)

			got, _ := runOnce(t, cfg, iau.PolicyNone, p, input)
			want, err := q.RunFinal(input)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("accelerator output differs from reference (shape %v vs %v)", got.Shape, want.Shape)
			}
		})
	}
}

// TestPreemptionBitExact proves the core INCA property: a low-priority task
// preempted (possibly many times) by a high-priority task produces exactly
// the same output as an uninterrupted run, under every interrupt policy.
func TestPreemptionBitExact(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3

	victim := model.NewResNetTiny()
	preemptor := model.NewTinyCNN(3, 16, 16)

	for _, policy := range []iau.Policy{iau.PolicyVI, iau.PolicyLayerByLayer, iau.PolicyCPULike} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			vp, vq := buildFunctional(t, victim, cfg, true, 11)
			pp, _ := buildFunctional(t, preemptor, cfg, true, 13)

			vin := tensor.NewInt8(victim.InC, victim.InH, victim.InW)
			tensor.FillPattern(vin, 5)
			pin := tensor.NewInt8(preemptor.InC, preemptor.InH, preemptor.InW)
			tensor.FillPattern(pin, 6)

			want, err := vq.RunFinal(vin)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}

			varena, err := accel.NewArena(vp)
			if err != nil {
				t.Fatalf("arena: %v", err)
			}
			if err := accel.WriteInputAt(varena, vp, vin, 0); err != nil {
				t.Fatal(err)
			}

			u := iau.New(cfg, policy)
			if err := u.Submit(2, &iau.Request{Label: "victim", Prog: vp, Arena: varena}); err != nil {
				t.Fatal(err)
			}
			// Fire a burst of high-priority requests spread over the
			// victim's runtime so preemptions land at many positions.
			for i := 0; i < 8; i++ {
				parena, err := accel.NewArena(pp)
				if err != nil {
					t.Fatal(err)
				}
				if err := accel.WriteInputAt(parena, pp, pin, 0); err != nil {
					t.Fatal(err)
				}
				at := uint64(1000 + i*40000)
				if err := u.SubmitAt(0, &iau.Request{Label: "preemptor", Prog: pp, Arena: parena}, at); err != nil {
					t.Fatal(err)
				}
			}
			if err := u.RunAll(); err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(u.Preemptions) == 0 {
				t.Fatalf("scenario produced no preemptions; timing assumptions broken")
			}
			got, err := accel.ReadOutputAt(varena, vp, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("preempted output differs from reference after %d preemptions", len(u.Preemptions))
			}
			if len(u.Completions) != 9 {
				t.Fatalf("expected 9 completions, got %d", len(u.Completions))
			}
		})
	}
}
