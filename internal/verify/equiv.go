package verify

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/fault"
	"inca/internal/golden"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/progcheck"
	"inca/internal/quant"
	"inca/internal/sched"
	"inca/internal/tensor"
	"inca/internal/trace"
)

// errSkip marks a generated case that cannot run (the random recipe shrank a
// featuremap below a kernel, exceeded a buffer, ...). The sweep draws again;
// a skip is never a failure.
var errSkip = errors.New("verify: case not runnable")

// IsSkip reports whether RunCase rejected the case as not runnable.
func IsSkip(err error) bool { return errors.Is(err, errSkip) }

// RunStats summarises what one case actually exercised.
type RunStats struct {
	Runs        int // IAU runs performed (sweeps run once per interrupt point)
	Preemptions int // total preemptions observed across those runs
}

// probeRecipe is the small fixed network interfering requests run: two
// layers (so layer-by-layer switching has a boundary) and virtual
// instructions (so probes themselves are preemptible under VI).
func probeRecipe() Recipe {
	return Recipe{C: 2, H: 8, W: 10, Ops: []OpSpec{
		{Kind: 0, K: 3, Stride: 1, Pad: 1, OutC: 3, ReLU: true},
		{Kind: 5, K: 1, Stride: 1, Pad: 0, OutC: 2},
	}}
}

// compileRecipe lowers a recipe for functional execution on cfg.
func compileRecipe(r Recipe, cfg accel.Config, paramSeed uint64) (*isa.Program, *model.Network, error) {
	return compileRecipeVI(r, cfg, paramSeed, 1, compiler.VIEvery{})
}

// compileRecipeVI is the underlying lowering with an explicit interrupt-point
// placement policy.
func compileRecipeVI(r Recipe, cfg accel.Config, paramSeed uint64, batch int, vi compiler.VIPolicy) (*isa.Program, *model.Network, error) {
	g := r.Build()
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errSkip, err)
	}
	q, err := quant.Synthesize(g, paramSeed)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errSkip, err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = vi
	opt.EmitWeights = true
	opt.Batch = batch
	p, err := compiler.Compile(q, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errSkip, err)
	}
	if len(p.Weights) == 0 {
		// A network with no conv layers carries no weight image and cannot
		// execute functionally (NewArena rejects it) — not a stack bug.
		return nil, nil, fmt.Errorf("%w: weight-free network", errSkip)
	}
	return p, g, nil
}

// compileVictim lowers the case's victim under its placement policy. Budget
// codes compile twice: VIEvery first for the stream's minimal achievable
// bound, then VIBudget at the case's multiple of it — always feasible, and
// on the tight multiple the optimizer genuinely drops backup groups. The
// budget compile must never fail: a failure here is an optimizer bug, not a
// skip.
func compileVictim(c Case, cfg accel.Config, paramSeed uint64) (*isa.Program, *model.Network, error) {
	p, g, err := compileRecipeVI(c.Recipe, cfg, paramSeed, c.BatchN(), compiler.VIEvery{})
	if err != nil || c.PlacementCode == 0 {
		return p, g, err
	}
	budget := uint64(c.PlacementScale() * float64(p.ResponseBound))
	if budget < p.ResponseBound {
		budget = p.ResponseBound
	}
	bp, _, err := compileRecipeVI(c.Recipe, cfg, paramSeed, c.BatchN(), compiler.VIBudget{MaxResponseCycles: budget})
	if err != nil {
		return nil, nil, fmt.Errorf("placement axis: VIBudget{%d} (%gx the VIEvery bound %d) failed: %v",
			budget, c.PlacementScale(), p.ResponseBound, err)
	}
	if bp.ResponseBound > budget {
		return nil, nil, fmt.Errorf("placement axis: emitted bound %d exceeds its own budget %d", bp.ResponseBound, budget)
	}
	return bp, g, nil
}

// RunCase executes one generated case end to end: compile the victim, run
// the golden interpreter for the expected arena, then run the real IAU stack
// under the case's schedule and policy and check bit-exact equivalence plus
// the architectural invariants. A sweep case performs one full run per
// interrupt point.
func RunCase(c Case) (RunStats, error) {
	var stats RunStats
	cfg := Configs()[c.CfgIdx]
	paramSeed := mix(c.Seed, c.Index) ^ 0xDDC0FFEE

	victim, vg, err := compileVictim(c, cfg, paramSeed)
	if err != nil {
		return stats, err
	}
	// Static-verification gate: beyond the compiler's own self-check, the
	// harness re-verifies the victim from scratch so a regression in either
	// the emitter or the checker surfaces as a fuzz failure.
	if rep := progcheck.Verify(victim, progcheck.Options{Cost: cfg}); !rep.OK() {
		return stats, fmt.Errorf("progcheck rejects the compiled victim: %v", rep.Err())
	}
	probe, _, err := compileRecipe(probeRecipe(), cfg, 2)
	if err != nil {
		return stats, fmt.Errorf("probe network must always compile: %v", err)
	}

	// One distinct input per batch element (element 0 keeps the historical
	// single-image pattern so old repro seeds stay meaningful).
	inputs := make([]*tensor.Int8, victim.BatchN())
	for b := range inputs {
		inputs[b] = tensor.NewInt8(vg.InC, vg.InH, vg.InW)
		tensor.FillPattern(inputs[b], paramSeed^0x51^(uint64(b)*0xB5EED))
	}

	// The executable spec's verdict: what DDR must hold afterwards.
	want, err := golden.RunNet(victim, inputs...)
	if err != nil {
		return stats, fmt.Errorf("golden rejects the compiled stream: %v", err)
	}

	// The victim's DDR image before it runs; every run starts from a copy.
	initial, err := accel.NewArena(victim)
	if err != nil {
		return stats, err
	}
	for b, in := range inputs {
		if err := accel.WriteInputAt(initial, victim, in, b); err != nil {
			return stats, err
		}
	}

	starts := make([]uint64, len(victim.Instrs))
	soloTotal := accel.SoloReplay(cfg, victim, starts)

	if c.Sched.Kind == KindCluster {
		n, err := runClusterOnce(c, cfg, victim, probe, initial, want, soloTotal)
		stats.Runs++
		stats.Preemptions += n
		return stats, err
	}

	var plans []plan
	if c.Sched.Kind == KindSweep {
		pts := victim.InterruptPoints()
		if len(pts) == 0 {
			return stats, fmt.Errorf("%w: no interrupt points to sweep", errSkip)
		}
		stride := (len(pts) + 23) / 24 // cap sweeps on big streams
		for i := 0; i < len(pts); i += stride {
			plans = append(plans, plan{
				label:  fmt.Sprintf("sweep@pc%d", pts[i]),
				cycles: []uint64{starts[pts[i]]},
				slots:  []int{c.Sched.VictimSlot - 1},
				aim:    pts[i],
			})
		}
	} else {
		p := plan{label: c.Sched.Kind, aim: -1}
		for _, pr := range c.Sched.Probes {
			p.cycles = append(p.cycles, uint64(pr.Frac*float64(soloTotal)))
			p.slots = append(p.slots, pr.Slot)
		}
		plans = append(plans, p)
	}

	for _, pl := range plans {
		n, err := runOnce(c, cfg, victim, probe, initial, want, pl, soloTotal)
		stats.Runs++
		stats.Preemptions += n
		if err != nil {
			return stats, fmt.Errorf("run %q: %w", pl.label, err)
		}
	}
	return stats, nil
}

// plan is one IAU run of a case: which probes arrive when.
type plan struct {
	label  string
	cycles []uint64 // probe submit cycles, index-aligned with slots
	slots  []int
	aim    int // sweep: the interrupt point the probe is aimed at; -1 otherwise
}

// playPlan runs one plan on a fresh IAU with the victim on arena (nil for a
// timing-only replay); onPreempt, when set, observes every preemption.
// soloTotal (the victim's uninterrupted runtime) scales the predictive
// axis's deadline.
func playPlan(c Case, cfg accel.Config, victim, probe *isa.Program, arena []byte, pl plan,
	soloTotal uint64, onPreempt func(*iau.IAU, *iau.Preemption)) (*iau.IAU, []*iau.Request, error) {

	u := iau.New(cfg, c.Policy)
	defer u.Eng.Close()
	// A tracer rides along on every functional run: its aggregates are exact
	// even after the timeline ring wraps, so invariant 7 can cross-check the
	// IAU's own cycle counters against the independently-emitted trace, and
	// invariant 8 anchors response-bound measurements on the victim's
	// start/resume marks (sized so small-case timelines rarely wrap). The
	// timing-only replay runs untraced, so invariant 9 holds the stepping
	// functional run against a replay that jumps (DESIGN.md §26).
	if arena != nil {
		u.AttachTracer(trace.New(1 << 13))
	}
	if c.Sched.FaultSeed != 0 {
		inj := fault.New(c.Sched.FaultSeed)
		inj.SetRate(fault.SiteBackup, c.Sched.BackupRate)
		inj.SetRate(fault.SiteStall, c.Sched.StallRate)
		inj.SetRate(fault.SiteIRQLost, c.Sched.IRQRate)
		u.Faults = inj
		u.WatchdogCycles = iau.WatchdogBound(cfg, victim, probe)
	}

	// Predictive axis: hand scheduling decisions to the cost model. The IAU
	// stays the mechanism owner (boundary legality is still enforced), so
	// whatever victims and methods the policy picks, bytes must not change.
	if c.Predictive {
		pol := sched.NewPredictive(cfg)
		pol.Bind(c.Sched.VictimSlot, victim,
			uint64(c.DeadlineFrac()*float64(soloTotal)), c.PredCold)
		for _, slot := range pl.slots {
			pol.Bind(slot, probe, 0, c.PredCold)
		}
		u.Sched = pol
	}
	if onPreempt != nil {
		u.OnPreempt = func(pr *iau.Preemption) { onPreempt(u, pr) }
	}

	reqs := []*iau.Request{{Label: "victim", Prog: victim, Arena: arena}}
	if err := u.Submit(c.Sched.VictimSlot, reqs[0]); err != nil {
		return u, reqs, err
	}
	for i, slot := range pl.slots {
		r := &iau.Request{Label: fmt.Sprintf("probe%d", i), Prog: probe}
		reqs = append(reqs, r)
		if err := u.SubmitAt(slot, r, pl.cycles[i]); err != nil {
			return u, reqs, err
		}
	}
	return u, reqs, u.RunAll()
}

// runOnce performs a single IAU run of the victim under one plan and checks
// equivalence and invariants.
func runOnce(c Case, cfg accel.Config, victim, probe *isa.Program, initial,
	want []byte, pl plan, soloTotal uint64) (preempts int, err error) {

	progOn := func(slot int) *isa.Program {
		if slot == c.Sched.VictimSlot {
			return victim
		}
		return probe
	}

	// Invariant: after every preemption event the victim slot's registers
	// must describe a legal boundary for the active policy.
	var violations []string
	legality := func(u *iau.IAU, pr *iau.Preemption) {
		regs := u.Registers(pr.Victim)
		ins := progOn(pr.Victim).Instrs
		pc := regs.InstrAddr
		bad := func(f string, a ...interface{}) {
			violations = append(violations, fmt.Sprintf("@%d victim slot%d pc%d: %s", u.Now, pr.Victim, pc, fmt.Sprintf(f, a...)))
		}
		if regs.State != iau.Preempted {
			bad("state %v after preemption, want Preempted", regs.State)
		}
		if pc < 0 || pc >= len(ins) {
			bad("pc out of stream [0,%d)", len(ins))
			return
		}
		// Legality is judged against the method this preemption actually
		// used: under the static scheduler that is always c.Policy, under
		// the predictive axis it is whatever the cost model chose.
		switch pr.Method {
		case iau.PolicyVI:
			// Legal parks: first Vir_LOAD_D of a post-Vir_SAVE group, or the
			// leader of a lone restore group. Mid-group Vir_LOAD_D (second
			// input restore of an Add layer) is illegal: resume would skip
			// the earlier restores.
			if ins[pc].Op != isa.OpVirLoadD || (pc > 0 && ins[pc-1].Op == isa.OpVirLoadD) {
				bad("parked at %s (prev %s), not the leader of a restore group",
					ins[pc].Op, ins[max(pc-1, 0)].Op)
			}
		case iau.PolicyLayerByLayer:
			if pc == 0 || ins[pc].Op == isa.OpEnd || ins[pc].Layer == ins[pc-1].Layer {
				bad("parked mid-layer (op %s, layer %d)", ins[pc].Op, ins[pc].Layer)
			}
		}
		if pr.BoundaryCycle < pr.RequestCycle || pr.BackupDoneCycle < pr.BoundaryCycle {
			bad("preemption timeline not monotonic: req=%d boundary=%d backup=%d",
				pr.RequestCycle, pr.BoundaryCycle, pr.BackupDoneCycle)
		}
	}

	arena := bytes.Clone(initial)
	u, reqs, err := playPlan(c, cfg, victim, probe, arena, pl, soloTotal, legality)
	if err != nil {
		return len(u.Preemptions), fmt.Errorf("IAU run failed: %v", err)
	}
	preempts = len(u.Preemptions)

	// 1. Bit-exact equivalence with the golden interpreter, whole arena:
	// input and weights untouched, every layer's output identical.
	if !bytes.Equal(want, arena) {
		n, first := diffBytes(want, arena)
		region := "featuremap"
		for li := range victim.Layers {
			l := &victim.Layers[li]
			if first >= int(l.OutAddr) && first < int(l.OutAddr)+l.OutC*l.OutH*l.OutW {
				region = fmt.Sprintf("layer %d (%s) output", li, l.Name)
				break
			}
		}
		return preempts, fmt.Errorf("arena differs from golden at %d bytes (first at %d, in %s) after %d preemptions",
			n, first, region, preempts)
	}

	// 2. Register/slot-state legality collected after every event.
	if len(violations) > 0 {
		return preempts, fmt.Errorf("register legality violated (%d):\n  %s", len(violations), violations[0])
	}

	// 3. Quiescence: every slot idle and drained, no failed requests, every
	// submitted request completed exactly once.
	for slot := 0; slot < iau.NumSlots; slot++ {
		regs := u.Registers(slot)
		if regs.State != iau.Idle || regs.QueueDepth != 0 || regs.Label != "" {
			return preempts, fmt.Errorf("slot %d not quiesced after RunAll: %+v", slot, regs)
		}
	}
	if len(u.Completions) != len(reqs) {
		return preempts, fmt.Errorf("%d completions for %d requests", len(u.Completions), len(reqs))
	}
	for _, r := range reqs {
		if r.Failed {
			return preempts, fmt.Errorf("request %q left failed", r.Label)
		}
	}

	// 4. Cycle-accounting conservation: simulated time decomposes exactly
	// into busy + idle + per-request virtual fetches and injected stalls.
	var fetch, stall uint64
	for _, r := range reqs {
		fetch += r.FetchCycles
		stall += r.StallCycles
	}
	if u.Now != u.BusyCycles+u.IdleCycles+fetch+stall {
		return preempts, fmt.Errorf("cycle conservation broken: now=%d busy=%d idle=%d fetch=%d stall=%d (sum %d)",
			u.Now, u.BusyCycles, u.IdleCycles, fetch, stall, u.BusyCycles+u.IdleCycles+fetch+stall)
	}

	// 5. Snapshot free-list balance: no CPU-like backup may leak.
	live, free := u.Eng.SnapshotBalance()
	if live != 0 {
		return preempts, fmt.Errorf("%d snapshots still live after RunAll", live)
	}
	if free > 4 {
		return preempts, fmt.Errorf("snapshot free list overgrew: %d entries", free)
	}

	// 6. Fault-free preemptions must all have resumed (with faults armed a
	// corrupt backup legitimately restarts instead).
	if c.Sched.FaultSeed == 0 {
		for i, pr := range u.Preemptions {
			if !pr.Resumed {
				return preempts, fmt.Errorf("preemption %d (victim slot%d at pc%d) never resumed", i, pr.Victim, pr.VictimPC)
			}
		}
	}

	// 7. Trace conservation: the tracer aggregates cycles independently at
	// each emission site, so its per-kind sums must reproduce the IAU's own
	// accounting exactly — busy time from calc/xfer/backup/restore spans,
	// and fetch/stall from the virtual-instruction and injected-stall spans.
	m := u.Tracer.Metrics()
	var traceBusy, traceFetch, traceStall uint64
	for i := range m.Tasks {
		t := &m.Tasks[i]
		traceBusy += t.BusyCycles()
		traceFetch += t.FetchCycles
		traceStall += t.StallCycles
	}
	if traceBusy != u.BusyCycles {
		return preempts, fmt.Errorf("trace conservation broken: span cycles calc+xfer+backup+restore=%d, IAU busy=%d",
			traceBusy, u.BusyCycles)
	}
	if traceFetch != fetch || traceStall != stall {
		return preempts, fmt.Errorf("trace conservation broken: trace fetch=%d stall=%d, requests fetch=%d stall=%d",
			traceFetch, traceStall, fetch, stall)
	}

	// 8. Response-bound adherence: under the static VI scheduler with no
	// faults, every preemption of a program carrying a compiler-proven
	// ResponseBound must finish its backup within that bound, measured from
	// the moment the request could first be charged against the running
	// victim — the later of the preemptor becoming ready and the victim's
	// own last start/resume (a request that arrived while the victim was
	// itself parked cannot start the clock before the victim runs again).
	// The predictive axis is exempt: its cost model may legitimately defer
	// a switch past the next interrupt point.
	if !c.Predictive && c.Sched.FaultSeed == 0 {
		events := u.Tracer.Events()
		for _, pr := range u.Preemptions {
			if pr.Method != iau.PolicyVI {
				continue
			}
			bound := progOn(pr.Victim).ResponseBound
			if bound == 0 {
				continue
			}
			// The victim's last Start/Resume at or before the boundary. If
			// the ring wrapped past it the clock cannot be established —
			// skip that record rather than misjudge it.
			var anchor uint64
			found := false
			for _, ev := range events {
				if ev.Slot != int32(pr.Victim) || ev.Cycle > pr.BoundaryCycle {
					continue
				}
				if ev.Kind == trace.KindStart || ev.Kind == trace.KindResume {
					anchor, found = ev.Cycle, true
				}
			}
			if !found {
				continue
			}
			req := pr.RequestCycle
			if anchor > req {
				req = anchor
			}
			if got := pr.BackupDoneCycle - req; got > bound {
				return preempts, fmt.Errorf(
					"response bound exceeded: victim slot%d pc%d backed up in %d cycles, proven bound %d (request=%d anchor=%d boundary=%d backupDone=%d)",
					pr.Victim, pr.VictimPC, got, bound, pr.RequestCycle, anchor, pr.BoundaryCycle, pr.BackupDoneCycle)
			}
		}
		// A sweep probe is aimed with the solo timeline, so under VI the
		// victim's first switch must be the interrupt point it was aimed at.
		if pl.aim >= 0 && c.Policy == iau.PolicyVI && (preempts == 0 || u.Preemptions[0].VictimPC != pl.aim) {
			return preempts, fmt.Errorf("sweep probe aimed at interrupt point pc%d missed it (%d preemptions)", pl.aim, preempts)
		}
	}

	// 9. One cycle model: the plan replayed timing-only (no arena) must agree
	// with this run on every cycle it reports.
	tu, treqs, err := playPlan(c, cfg, victim, probe, nil, pl, soloTotal, nil)
	if err != nil {
		return preempts, fmt.Errorf("timing-only replay failed: %v", err)
	}
	if f, t := cycleLedger(u, reqs), cycleLedger(tu, treqs); !reflect.DeepEqual(f, t) {
		return preempts, fmt.Errorf("functional and timing-only runs disagree (now busy idle calc xfer hidden, preemptions, per request exec fetch stall done):\n  %+v\n  %+v", f, t)
	}
	return preempts, nil
}

// cycleLedger lists what invariant 9 holds equal between a functional run
// and its timing-only replay.
func cycleLedger(u *iau.IAU, reqs []*iau.Request) []any {
	calc, xfer, hidden := u.Eng.CycleStats()
	l := []any{u.Now, u.BusyCycles, u.IdleCycles, calc, xfer, hidden}
	for _, p := range u.Preemptions {
		l = append(l, *p)
	}
	for _, r := range reqs {
		l = append(l, [4]uint64{r.ExecCycles, r.FetchCycles, r.StallCycles, r.DoneCycle})
	}
	return l
}

// diffBytes counts the bytes on which got differs from want and finds the
// first of them (-1 if none).
func diffBytes(want, got []byte) (n, first int) {
	first = -1
	for i := range want {
		if want[i] != got[i] {
			if n++; first < 0 {
				first = i
			}
		}
	}
	return n, first
}
