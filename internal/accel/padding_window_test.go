package accel_test

import (
	"reflect"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/tensor"
)

// TestEmptyWindowTileSurvivesRestore is the minimized regression for a bug
// the preemption fuzzer surfaced: a conv with Pad >= KH on its last stride
// step (here k=1, stride=2, pad=1 on a 7-row input) makes the final tile
// read nothing but padding — its required input-row window clamps to empty.
// The engine's residency check used to reject that tile whenever the
// resident window didn't happen to cover the degenerate range, which is
// exactly the state after a preemption restore. Execute the stream with a
// full on-chip invalidate plus materialized restore at every interrupt point
// and require the same output as the uninterrupted run.
func TestEmptyWindowTileSurvivesRestore(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3

	g := model.New("padwin", 1, 7, 6)
	g.Conv("c0", 0, 1, 1, 2, 1, false)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	q, err := quant.Synthesize(g, 5)
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

	in := tensor.NewInt8(g.InC, g.InH, g.InW)
	tensor.FillPattern(in, 17)

	run := func(interruptAt int) *tensor.Int8 {
		t.Helper()
		arena, err := accel.NewArena(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := accel.WriteInputAt(arena, p, in, 0); err != nil {
			t.Fatal(err)
		}
		eng := accel.NewEngine(cfg)
		defer eng.Close()
		for i := 0; i < len(p.Instrs); i++ {
			ins := p.Instrs[i]
			if ins.Op == isa.OpEnd {
				break
			}
			if ins.Op.Virtual() {
				if i != interruptAt {
					continue // skipped in normal flow
				}
				// Take the interrupt here: materialize the backup if this
				// point is a Vir_SAVE, drop all on-chip state, then
				// materialize the whole restore group — the exact sequence
				// the IAU performs around a context switch.
				if ins.Op == isa.OpVirSave {
					if _, err := eng.Exec(arena, p, ins, 0); err != nil {
						t.Fatalf("interrupt@%d: backup: %v", interruptAt, err)
					}
					i++
				}
				eng.Invalidate()
				for ; i < len(p.Instrs) && p.Instrs[i].Op == isa.OpVirLoadD; i++ {
					if _, err := eng.Exec(arena, p, p.Instrs[i], 0); err != nil {
						t.Fatalf("interrupt@%d: restore pc %d: %v", interruptAt, i, err)
					}
				}
				i--
				continue
			}
			if _, err := eng.Exec(arena, p, ins, 0); err != nil {
				t.Fatalf("interrupt@%d: pc %d %v: %v", interruptAt, i, ins, err)
			}
		}
		out, err := accel.ReadOutputAt(arena, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	want := run(-1) // uninterrupted
	pts := p.InterruptPoints()
	if len(pts) == 0 {
		t.Fatal("no interrupt points in the compiled stream")
	}
	for _, pt := range pts {
		if got := run(pt); !reflect.DeepEqual(got, want) {
			t.Fatalf("interrupt at pc %d changed the output", pt)
		}
	}
}
