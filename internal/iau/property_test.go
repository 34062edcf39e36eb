package iau_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/tensor"
)

// randomNetwork builds a small random conv/pool/residual network.
func randomNetwork(r *rand.Rand) *model.Network {
	c := 1 + r.Intn(4)
	h := 8 + r.Intn(16)
	w := 8 + r.Intn(16)
	g := model.New("prop", c, h, w)
	cur := 0
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		shapes, err := g.InferShapes()
		if err != nil {
			break
		}
		in := shapes[cur]
		switch r.Intn(5) {
		case 0, 1: // dense conv
			k := []int{1, 3}[r.Intn(2)]
			stride := 1 + r.Intn(2)
			if (in.H-k)/stride+1 < 2 || (in.W-k)/stride+1 < 2 {
				continue
			}
			cur = g.Conv("c", cur, 1+r.Intn(12), k, stride, k/2, r.Intn(2) == 0)
		case 2: // depthwise
			if in.H < 4 || in.W < 4 {
				continue
			}
			cur = g.DWConv("d", cur, 3, 1, 1, true)
		case 3: // residual block
			if in.H < 4 || in.W < 4 {
				continue
			}
			a := g.Conv("ra", cur, in.C, 3, 1, 1, true)
			cur = g.Residual("add", a, cur, r.Intn(2) == 0)
		case 4: // pool
			if in.H < 5 || in.W < 5 {
				continue
			}
			cur = g.MaxPool("p", cur, 2, 2)
		}
	}
	if specs, _ := g.ConvSpecs(); len(specs) == 0 {
		g.Conv("fallback", cur, 4, 3, 1, 1, true)
	}
	return g
}

// TestPropertyPreemptionBitExact is the paper's core correctness property,
// checked over randomized networks, parallelisms, save granularities,
// policies, and preemption schedules: an interrupted run writes exactly the
// bytes an uninterrupted run writes.
func TestPropertyPreemptionBitExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomNetwork(r)

		cfg := accel.Big()
		cfg.ParaIn = 1 + r.Intn(6)
		cfg.ParaOut = 1 + r.Intn(6)
		cfg.ParaHeight = 1 + r.Intn(4)
		opt := cfg.CompilerOptions()
		opt.BlobsPerSave = r.Intn(4)
		opt.VI = compiler.VIEvery{}
		opt.EmitWeights = true

		q, err := quant.Synthesize(g, uint64(seed))
		if err != nil {
			t.Logf("seed %d: synthesize: %v", seed, err)
			return false
		}
		p, err := compiler.Compile(q, opt)
		if err != nil {
			t.Logf("seed %d: compile: %v", seed, err)
			return false
		}
		input := tensor.NewInt8(g.InC, g.InH, g.InW)
		tensor.FillPattern(input, uint64(seed)+1)
		want, err := q.RunFinal(input)
		if err != nil {
			t.Logf("seed %d: reference: %v", seed, err)
			return false
		}

		// Preemptor: tiny program.
		pg := model.NewTinyCNN(1, 6, 6)
		pq, err := quant.Synthesize(pg, 1)
		if err != nil {
			return false
		}
		popt := cfg.CompilerOptions()
		popt.EmitWeights = true
		pp, err := compiler.Compile(pq, popt)
		if err != nil {
			t.Logf("seed %d: preemptor compile: %v", seed, err)
			return false
		}

		policies := []iau.Policy{iau.PolicyVI, iau.PolicyLayerByLayer, iau.PolicyCPULike}
		pol := policies[r.Intn(len(policies))]

		arena, err := accel.NewArena(p)
		if err != nil {
			t.Logf("seed %d: arena: %v", seed, err)
			return false
		}
		if err := accel.WriteInputAt(arena, p, input, 0); err != nil {
			return false
		}
		u := iau.New(cfg, pol)
		if err := u.Submit(3, &iau.Request{Label: "victim", Prog: p, Arena: arena}); err != nil {
			return false
		}
		// Random burst of preemptors across random slots and times.
		bursts := 1 + r.Intn(6)
		for i := 0; i < bursts; i++ {
			pa, err := accel.NewArena(pp)
			if err != nil {
				return false
			}
			pin := tensor.NewInt8(1, 6, 6)
			tensor.FillPattern(pin, uint64(i))
			if err := accel.WriteInputAt(pa, pp, pin, 0); err != nil {
				return false
			}
			at := uint64(r.Intn(200000))
			if err := u.SubmitAt(r.Intn(3), &iau.Request{Label: "probe", Prog: pp, Arena: pa}, at); err != nil {
				return false
			}
		}
		if err := u.RunAll(); err != nil {
			t.Logf("seed %d (%v): run: %v", seed, pol, err)
			return false
		}
		got, err := accel.ReadOutputAt(arena, p, 0)
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d (%v): output mismatch after %d preemptions", seed, pol, len(u.Preemptions))
			return false
		}
		return true
	}
	cfgq := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfgq.MaxCount = 10
	}
	if err := quick.Check(f, cfgq); err != nil {
		t.Fatal(err)
	}
}
