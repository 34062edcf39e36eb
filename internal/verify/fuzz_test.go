package verify

import (
	"bytes"
	"reflect"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/golden"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/tensor"
)

// dna feeds the structured case generators from a raw fuzz byte string: each
// draw consumes input bytes, and an exhausted string yields zeros so every
// input maps to some deterministic case. Mutating the bytes mutates the case
// structurally — the fuzzer never has to rediscover the ISA's framing.
type dna struct {
	b []byte
	i int
}

func (d *dna) next() byte {
	if d.i >= len(d.b) {
		return 0
	}
	v := d.b[d.i]
	d.i++
	return v
}

func (d *dna) Intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(d.next()) % n
}

func (d *dna) Float64() float64 { return float64(d.next()) / 256 }

func (d *dna) Uint64() uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v = v<<8 | uint64(d.next())
	}
	return v
}

// FuzzCompileRun: any recipe the DNA describes that the compiler accepts
// must (a) pass the golden interpreter's stream-legality checks and (b)
// produce the same DDR image on the real engine's uninterrupted datapath.
func FuzzCompileRun(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 6, 2, 1, 0, 1, 4, 0, 9})
	f.Add([]byte{0, 0xff, 0x80, 2, 4, 1, 3, 3, 3, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &dna{b: data}
		r := randomRecipe(d)
		cfg := Configs()[d.Intn(len(Configs()))]
		batch := []int{1, 1, 2, 4, 8}[d.Intn(5)]
		p, g, err := compileRecipeVI(r, cfg, d.Uint64()|1, batch, compiler.VIEvery{})
		if err != nil {
			t.Skip(err)
		}
		inSeed := d.Uint64()
		inputs := make([]*tensor.Int8, p.BatchN())
		for b := range inputs {
			inputs[b] = tensor.NewInt8(g.InC, g.InH, g.InW)
			tensor.FillPattern(inputs[b], inSeed^(uint64(b)*0xB5EED))
		}
		want, err := accel.NewArena(p)
		if err != nil {
			t.Fatalf("arena: %v", err)
		}
		for b, in := range inputs {
			if err := accel.WriteInputAt(want, p, in, b); err != nil {
				t.Fatalf("input: %v", err)
			}
		}
		if err := golden.Run(p, want); err != nil {
			t.Fatalf("golden rejects a compiled stream: %v\nnet: %s", err, r)
		}
		arena, err := accel.NewArena(p)
		if err != nil {
			t.Fatalf("arena: %v", err)
		}
		for b, in := range inputs {
			if err := accel.WriteInputAt(arena, p, in, b); err != nil {
				t.Fatalf("input: %v", err)
			}
		}
		eng := accel.NewEngine(cfg)
		defer eng.Close()
		for _, ins := range p.Instrs {
			if ins.Op == isa.OpEnd {
				break
			}
			if ins.Op.Virtual() {
				continue
			}
			if _, err := eng.Exec(arena, p, ins, 0); err != nil {
				t.Fatalf("engine rejects a compiled stream: %v\nnet: %s", err, r)
			}
		}
		if !bytes.Equal(want, arena) {
			t.Fatalf("engine arena differs from golden\nnet: %s", r)
		}
	})
}

// FuzzPreemptResume: the full equivalence harness — recipe, schedule and
// interrupt method all drawn from the DNA, checked bit-exact against golden
// with every architectural invariant.
func FuzzPreemptResume(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 8, 4, 1, 0, 3, 5, 0, 1, 1, 0, 120, 2, 200})
	f.Add([]byte{5, 1, 9, 2, 4, 4, 7, 2, 0, 5, 3, 3, 60, 0, 90, 1, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &dna{b: data}
		c := Case{Seed: 0xF022, Index: 0}
		c.Recipe = randomRecipe(d)
		c.CfgIdx = d.Intn(len(Configs()))
		c.Batch = []int{1, 1, 2, 4, 8}[d.Intn(5)]
		kind := Kinds()[d.Intn(len(Kinds()))]
		policies := []iau.Policy{iau.PolicyVI, iau.PolicyCPULike, iau.PolicyLayerByLayer}
		c.Policy = policies[d.Intn(len(policies))]
		if kind == KindSweep {
			c.Policy = iau.PolicyVI
		}
		c.Sched = randomSchedule(d, kind)
		// Trailing DNA bytes select the predictive-scheduler and
		// interrupt-point-placement axes; exhausted DNA draws zeros, which
		// leaves both off — the pre-axis corpus keeps describing exactly the
		// cases it always did.
		drawPredictive(d, &c)
		drawPlacement(d, &c)
		if _, err := RunCase(c); err != nil && !IsSkip(err) {
			t.Fatalf("%v\n%s", err, c)
		}
	})
}

// FuzzEncodeDecode: Decode never panics on arbitrary bytes, and anything it
// accepts round-trips bit-stable through Encode → Decode.
func FuzzEncodeDecode(f *testing.F) {
	// Seed with a real compiled program so the mutator starts from valid
	// framing rather than having to invent the magic header.
	if p, _, err := compileRecipe(probeRecipe(), Configs()[0], 3); err == nil {
		var buf bytes.Buffer
		if err := isa.Encode(&buf, p); err == nil {
			f.Add(buf.Bytes())
		}
	}
	f.Add([]byte{})
	f.Add([]byte("INCA"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := isa.Decode(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panicking is not
		}
		var buf bytes.Buffer
		if err := isa.Encode(&buf, p); err != nil {
			t.Fatalf("decoded program fails to re-encode: %v", err)
		}
		q, err := isa.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded program fails to decode: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatal("encode/decode round trip not stable")
		}
	})
}
