package golden_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/golden"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/tensor"
)

// The golden interpreter is the spec everything else is judged against, so
// it is itself validated two independent ways: against the network-level
// software reference (quant.Run — no ISA, no tiling, just math) and against
// the real engine executing the same stream straight-line (full-arena byte
// equality, covering every intermediate featuremap).

func compile(t *testing.T, g *model.Network, cfg accel.Config, seed uint64, vi bool) *isa.Program {
	t.Helper()
	q, err := quant.Synthesize(g, seed)
	if err != nil {
		t.Fatalf("%s: synthesize: %v", g.Name, err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIIf(vi)
	opt.EmitWeights = true
	p, err := compiler.Compile(q, opt)
	if err != nil {
		t.Fatalf("%s: compile: %v", g.Name, err)
	}
	return p
}

func input(g *model.Network, seed uint64) *tensor.Int8 {
	in := tensor.NewInt8(g.InC, g.InH, g.InW)
	tensor.FillPattern(in, seed)
	return in
}

// TestGoldenMatchesNetworkReference: the final featuremap the interpreter
// leaves in the arena equals what the network-level integer reference
// computes — across the functional zoo with and without virtual
// instructions in the stream (golden must skip them).
func TestGoldenMatchesNetworkReference(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3
	for _, g := range []*model.Network{
		model.NewTinyCNN(3, 14, 18),
		model.NewResNetTiny(),
		model.NewMobileNetTiny(),
		model.NewPoolNet(),
	} {
		for _, vi := range []bool{false, true} {
			p := compile(t, g, cfg, 7, vi)
			in := input(g, 42)
			arena, err := golden.RunNet(p, in)
			if err != nil {
				t.Fatalf("%s (vi=%v): golden run: %v", g.Name, vi, err)
			}
			got, err := accel.ReadOutputAt(arena, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			q, err := quant.Synthesize(g, 7)
			if err != nil {
				t.Fatal(err)
			}
			want, err := q.RunFinal(in)
			if err != nil {
				t.Fatalf("%s: reference run: %v", g.Name, err)
			}
			if !bytes.Equal(int8Bytes(got.Data), int8Bytes(want.Data)) {
				t.Errorf("%s (vi=%v): golden output differs from network reference", g.Name, vi)
			}
		}
	}
}

// TestGoldenMatchesEngineArena: over randomized networks, the interpreter's
// whole arena — every layer's output region, not just the last — is
// byte-identical to the real engine executing the same stream with no
// interrupts. This is the link the preemption-equivalence harness stands on.
func TestGoldenMatchesEngineArena(t *testing.T) {
	cfgs := []accel.Config{accel.Big(), accel.Big()}
	cfgs[0].ParaIn, cfgs[0].ParaOut, cfgs[0].ParaHeight = 4, 4, 3
	cfgs[1].ParaIn, cfgs[1].ParaOut, cfgs[1].ParaHeight = 8, 8, 4
	rng := rand.New(rand.NewSource(260805))
	const wantCases = 20
	cases := 0
	for attempt := 0; attempt < 400 && cases < wantCases; attempt++ {
		g := randomNet(rng, attempt)
		if g.Validate() != nil {
			continue
		}
		cfg := cfgs[attempt%len(cfgs)]
		q, err := quant.Synthesize(g, uint64(attempt)+1)
		if err != nil {
			continue
		}
		opt := cfg.CompilerOptions()
		opt.VI = compiler.VIIf(attempt%2 == 0)
		opt.EmitWeights = true
		p, err := compiler.Compile(q, opt)
		if err != nil {
			continue
		}
		cases++
		in := input(g, uint64(attempt)*13+5)

		want, err := golden.RunNet(p, in)
		if err != nil {
			t.Fatalf("net %d (%s): golden: %v", attempt, g.Summary(), err)
		}

		got, err := accel.NewArena(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := accel.WriteInputAt(got, p, in, 0); err != nil {
			t.Fatal(err)
		}
		eng := accel.NewEngine(cfg)
		for _, ins := range p.Instrs {
			if ins.Op.Virtual() || ins.Op == isa.OpEnd {
				continue
			}
			if _, err := eng.Exec(got, p, ins, 0); err != nil {
				t.Fatalf("net %d (%s): engine: exec %s: %v", attempt, g.Summary(), ins, err)
			}
		}
		eng.Close()
		if !bytes.Equal(want, got) {
			n, first := 0, -1
			for i := range want {
				if want[i] != got[i] {
					n++
					if first < 0 {
						first = i
					}
				}
			}
			t.Errorf("net %d (%s): engine arena differs from golden at %d bytes (first at %d)",
				attempt, g.Summary(), n, first)
		}
	}
	if cases < wantCases {
		t.Fatalf("only %d/%d random configs compiled", cases, wantCases)
	}
}

// TestGoldenChecksStreamLegality: the interpreter doubles as a stream
// checker — deleting a load or reordering a save produces an error, not
// silent garbage.
func TestGoldenChecksStreamLegality(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3
	g := model.NewTinyCNN(3, 12, 12)
	p := compile(t, g, cfg, 3, false)
	in := input(g, 1)

	drop := func(match func(isa.Instruction) bool) *isa.Program {
		cp := *p
		cp.Instrs = nil
		dropped := false
		for _, ins := range p.Instrs {
			if !dropped && match(ins) {
				dropped = true
				continue
			}
			cp.Instrs = append(cp.Instrs, ins)
		}
		if !dropped {
			t.Fatal("stream tamper matched nothing")
		}
		return &cp
	}

	cases := []struct {
		name string
		mut  *isa.Program
	}{
		{"missing LOAD_D", drop(func(i isa.Instruction) bool { return i.Op == isa.OpLoadD })},
		{"missing LOAD_W", drop(func(i isa.Instruction) bool { return i.Op == isa.OpLoadW })},
		{"missing CALC_F", drop(func(i isa.Instruction) bool { return i.Op == isa.OpCalcF })},
	}
	for _, c := range cases {
		if _, err := golden.RunNet(c.mut, in); err == nil {
			t.Errorf("%s: interpreter accepted an illegal stream", c.name)
		} else {
			t.Logf("%s: %v", c.name, err)
		}
	}
}

// randomNet mirrors the accel differential generator: a small network mixing
// dense / pointwise / depthwise / fused-pool convolutions, pools and adds.
func randomNet(rng *rand.Rand, idx int) *model.Network {
	c := 1 + rng.Intn(6)
	h := 8 + 2*rng.Intn(7)
	w := 8 + 2*rng.Intn(7)
	n := model.New(fmt.Sprintf("rand%d", idx), c, h, w)
	cur := 0
	for i := 0; i < 1+rng.Intn(3); i++ {
		relu := rng.Intn(2) == 0
		switch rng.Intn(6) {
		case 0:
			k := []int{1, 3, 5}[rng.Intn(3)]
			stride := 1 + rng.Intn(2)
			pad := rng.Intn(k/2 + 2)
			cur = n.Conv(fmt.Sprintf("conv%d", i), cur, 1+rng.Intn(10), k, stride, pad, relu)
		case 1:
			cur = n.DWConv(fmt.Sprintf("dw%d", i), cur, 3, 1+rng.Intn(2), 1, relu)
		case 2:
			cur = n.Add(model.Layer{
				Name: fmt.Sprintf("convp%d", i), Kind: model.KindConv, Inputs: []int{cur},
				OutC: 1 + rng.Intn(8), KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 1,
				ReLU: relu, FusedPool: 2,
			})
		case 3:
			cur = n.MaxPool(fmt.Sprintf("pool%d", i), cur, 2+rng.Intn(2), 2)
		case 4:
			outC := 1 + rng.Intn(8)
			a := n.Conv(fmt.Sprintf("res%da", i), cur, outC, 3, 1, 1, true)
			b := n.Conv(fmt.Sprintf("res%db", i), cur, outC, 1, 1, 0, false)
			// (b, a) fuses the Add into conv b's epilogue; the reverse keeps
			// the standalone Add — both must track the golden interpreter.
			if rng.Intn(2) == 0 {
				cur = n.Residual(fmt.Sprintf("res%d", i), b, a, relu)
			} else {
				cur = n.Residual(fmt.Sprintf("res%d", i), a, b, relu)
			}
		case 5:
			cur = n.Conv(fmt.Sprintf("pw%d", i), cur, 1+rng.Intn(12), 1, 1, 0, relu)
		}
	}
	return n
}

func int8Bytes(s []int8) []byte {
	b := make([]byte, len(s))
	for i, v := range s {
		b[i] = byte(v)
	}
	return b
}
