package iau

import (
	"slices"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
)

// soloLedger is what a solo run leaves behind: the clock, the busy cycles,
// the request's counters and the engine's cycle classes.
type soloLedger struct{ Now, Busy, Exec, Fetch, Calc, Xfer, Hidden uint64 }

func ledgerOf(u *IAU) soloLedger {
	r := u.Completions[0].Req
	l := soloLedger{Now: u.Now, Busy: u.BusyCycles, Exec: r.ExecCycles, Fetch: r.FetchCycles}
	l.Calc, l.Xfer, l.Hidden = u.Eng.CycleStats()
	return l
}

// TestPlanIdentity: a plan belongs to one program and one cycle model. After
// the original has lowered its plan, a value copy with one transfer longer, a
// Link of two programs, and the same program under a second configuration
// each run on a fresh IAU; each must end exactly where the stepping referee
// ends, by jumping, on a plan of its own.
func TestPlanIdentity(t *testing.T) {
	big := accel.Big()
	compile := func(g *model.Network) *isa.Program {
		q, err := quant.Synthesize(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		opt := big.CompilerOptions()
		opt.VI = compiler.VIEvery{}
		p, err := compiler.Compile(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// check runs p both ways under cfg and returns the jumping run's ledger.
	check := func(name string, cfg accel.Config, p *isa.Program) soloLedger {
		t.Helper()
		step := soloRun(t, cfg, p, (*IAU).runStepwise)
		got := soloRun(t, cfg, p, (*IAU).Run)
		if g, w := ledgerOf(got), ledgerOf(step); g != w {
			t.Errorf("%s: jumping run %+v, stepping run %+v", name, g, w)
		}
		if got.execs >= step.execs {
			t.Errorf("%s: Run stepped %d instructions, the referee %d: it never jumped", name, got.execs, step.execs)
		}
		return ledgerOf(got)
	}
	p := compile(model.NewResNetTiny())
	r := compile(model.NewMobileNetTiny())
	orig := check("original", big, p)
	check("second original", big, r)
	plan := p.Plan

	q := *p // the copy carries p's plan along
	q.Instrs = slices.Clone(p.Instrs)
	i := slices.IndexFunc(q.Instrs, func(in isa.Instruction) bool { return in.Op == isa.OpLoadD && in.Len > 0 })
	q.Instrs[i].Len += 4096
	if check("copy with a longer LOAD_D", big, &q) == orig {
		t.Errorf("copy with a longer LOAD_D: ends where the original does; the edit does not reach the clock")
	}
	if q.Plan == plan || p.Plan != plan {
		t.Errorf("copy: reused the original's plan (%v) or replaced it (%v)", q.Plan == plan, p.Plan != plan)
	}

	linked, _, err := isa.Link([]*isa.Program{p, r})
	if err != nil {
		t.Fatal(err)
	}
	for k, l := range linked {
		check("linked "+l.Name, big, l)
		if l.Plan == p.Plan || l.Plan == r.Plan {
			t.Errorf("linked program %d: reused an original's plan", k)
		}
	}

	if check("ResNet-tiny under Serving after Big", accel.Serving(), p) == orig {
		t.Errorf("Serving: ends where the Big run does; the configurations do not differ in timing")
	}
	if p.Plan == plan {
		t.Errorf("Serving: read the plan lowered under Big")
	}
}
