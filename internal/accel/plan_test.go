package accel_test

import (
	"testing"

	"inca/internal/accel"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/trace"
)

// stepTo walks a timing-only engine over p.Instrs[from:to] the way the IAU
// steps a stretch and returns the exec and fetch cycles it took.
func stepTo(e *accel.Engine, p *isa.Program, from, to int) (exec, fetch uint64) {
	for i := from; i < to; i++ {
		in := &p.Instrs[i]
		if in.Op.Virtual() {
			fetch += uint64(e.Cfg.FetchCycles)
			continue
		}
		c, _ := e.ExecRef(nil, p, in, 0)
		exec += c
	}
	return exec, fetch
}

// TestJumpIsStepping: the plan is the engine's own solo replay, and a jump is
// that replay read back. From positions a stepping engine reaches, with
// budgets from one cycle to unbounded, Jump stops right before the first
// instruction whose completion would spend the budget (or at the END), takes
// the exec and fetch cycles stepping takes, and leaves the engine's cycle
// classes and prefetch credit where stepping leaves them — the next
// instruction costs the same on both. An engine whose credit is off the plan,
// or that carries a tracer, does not jump.
func TestJumpIsStepping(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3
	p := buildProgram(t, model.NewResNetTiny(), cfg)
	end := len(p.Instrs) - 1 // the stream ends with its END
	starts := make([]uint64, len(p.Instrs))
	total := accel.SoloReplay(cfg, p, starts)
	step := accel.NewEngine(cfg)
	var now uint64
	for i := 0; i <= end; i++ {
		if starts[i] != now {
			t.Fatalf("SoloReplay: instruction %d starts at %d, stepping reaches it at %d", i, starts[i], now)
		}
		x, f := stepTo(step, p, i, i+1)
		now += x + f
	}
	if total != now {
		t.Fatalf("SoloReplay total %d, stepping %d", total, now)
	}

	refused := 0
	for _, pc := range []int{0, 1, end / 7, end / 3, end / 2, end - 3, end} {
		for _, drained := range []bool{false, true} {
			for _, budget := range []uint64{1, 500, 20000, total / 2, ^uint64(0)} {
				// ref steps one instruction at a time to where Jump must stop.
				ref, e := accel.NewEngine(cfg), accel.NewEngine(cfg)
				stepTo(ref, p, 0, pc)
				stepTo(e, p, 0, pc)
				if drained {
					ref.DrainPipeline()
					e.DrainPipeline()
				}
				want := pc
				var wExec, wFetch uint64
				for want < end {
					probe := *ref // the next instruction, priced on a copy
					x, f := stepTo(&probe, p, want, want+1)
					if wExec+wFetch+x+f >= budget {
						break
					}
					stepTo(ref, p, want, want+1)
					wExec, wFetch, want = wExec+x, wFetch+f, want+1
				}
				to, exec, fetch := e.Jump(e.PlanFor(p), pc, budget)
				if drained && to == pc && want != pc {
					refused++ // the credit left the plan: stepping only
					continue
				}
				if to != want || exec != wExec || fetch != wFetch {
					t.Fatalf("pc %d budget %d drained=%v: jumped to %d (exec %d fetch %d), stepping stops at %d (exec %d fetch %d)",
						pc, budget, drained, to, exec, fetch, want, wExec, wFetch)
				}
				c1, x1, h1 := e.CycleStats()
				c2, x2, h2 := ref.CycleStats()
				if c1 != c2 || x1 != x2 || h1 != h2 {
					t.Fatalf("pc %d budget %d: after the jump calc/xfer/hidden %d/%d/%d, stepping %d/%d/%d", pc, budget, c1, x1, h1, c2, x2, h2)
				}
				if to < end {
					got, _ := stepTo(e, p, to, to+1)
					w, _ := stepTo(ref, p, to, to+1)
					if got != w {
						t.Fatalf("pc %d budget %d: instruction %d costs %d after the jump, %d after stepping: the credit differs", pc, budget, to, got, w)
					}
				}
			}
		}
	}
	if refused == 0 {
		t.Error("no drained engine was refused a jump: the credit check never fired")
	}

	traced := accel.NewEngine(cfg)
	traced.Trace = trace.New(16)
	if to, _, _ := traced.Jump(traced.PlanFor(p), 0, ^uint64(0)); to != 0 {
		t.Errorf("an engine with a tracer jumped to %d: its hidden-transfer spans would be lost", to)
	}
}
