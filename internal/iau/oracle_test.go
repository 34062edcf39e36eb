package iau_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"inca/internal/accel"
	"inca/internal/fault"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/sched"
	"inca/internal/tensor"
	"inca/internal/trace"
)

// The oracle: IAU.Run arbitrates only at events (DESIGN.md §21); the loop it
// replaced arbitrated before every instruction and lives on, verbatim, as
// iau.RunStepwise. TestRunMatchesStepwise drives both through the same
// scenario and holds every observable of the run equal.

// scenario is one cell of the oracle matrix.
type scenario struct {
	policy     iau.Policy
	sched      string // "static" (Sched nil), "fake", "predictive"
	faults     bool
	tracer     bool
	functional bool
	delta      int // the first preemptor lands delta cycles off a victim instruction boundary
	seed       uint64

	// A named cell (oracleSet.cells) pins a case the matrix reaches only by
	// chance. urgentAt, when set, replaces the matrix's arrivals with one
	// urgent request on the lone victim at that cycle; cfg, when set,
	// replaces the set's accelerator configuration.
	cell     string
	urgentAt uint64
	cfg      *accel.Config
}

func (sc scenario) String() string {
	if sc.cell != "" {
		return fmt.Sprintf("%v/%s/cell=%s", sc.policy, sc.sched, sc.cell)
	}
	return fmt.Sprintf("%v/%s/faults=%v/tracer=%v/functional=%v/delta=%+d", sc.policy, sc.sched, sc.faults, sc.tracer, sc.functional, sc.delta)
}

// runFunc is one implementation of the run loop.
type runFunc func(u *iau.IAU, horizon uint64) error

// schedCall is one consultation of the fake Scheduler, arguments included.
type schedCall struct {
	Kind    string
	Now     uint64
	Running int
	Ready   string
}

// fakeSched is a call-counting Scheduler whose answers depend only on how
// often it has been asked: two loops that consult it identically get
// identical answers, and any extra, missing or reordered consultation shows
// in Calls. Its answers walk through everything the IAU must cope with: the
// static choice, a non-static one, slots outside ready, illegal methods, and
// bursts of "preempt now" long enough to meet a legal boundary.
type fakeSched struct {
	Calls []schedCall
}

func (f *fakeSched) record(kind string, u *iau.IAU, running int, ready []int) int {
	f.Calls = append(f.Calls, schedCall{kind, u.Now, running, fmt.Sprint(ready)})
	return len(f.Calls)
}

func (f *fakeSched) PickReady(u *iau.IAU, ready []int) int {
	switch n := f.record("pick", u, -1, ready); n % 3 {
	case 0:
		return ready[len(ready)-1]
	case 1:
		return ready[0]
	default:
		return iau.NumSlots + n // not in ready: the IAU falls back to ready[0]
	}
}

func (f *fakeSched) Contend(u *iau.IAU, running int, ready []int) (int, bool, iau.Policy) {
	n := f.record("contend", u, running, ready)
	burst := n / 16
	if burst%4 != 3 {
		return 0, false, iau.PolicyNone
	}
	cand := ready[burst%len(ready)]
	if burst%28 == 27 {
		cand = running // invalid: the victim cannot preempt itself
	}
	return cand, true, []iau.Policy{iau.PolicyVI, iau.PolicyCPULike, iau.PolicyLayerByLayer, iau.PolicyNone}[burst/4%4]
}

func (f *fakeSched) TaskDone(u *iau.IAU, slot int, req *iau.Request) {
	f.record("done "+req.Label, u, slot, nil)
}

// observed is everything the oracle compares between two loops.
type observed struct {
	Err              string
	Now, Busy, Idle  uint64
	Completions      []string
	Preemptions      []iau.Preemption
	Requests         []iau.Request // Prog and Arena cleared; every counter kept
	Arenas           []uint32      // CRC of each request's arena after the run
	Fault            iau.FaultStats
	FaultReport      string
	Calc, Xfer, Hide uint64
	SnapLive         int
	TraceBytes       string
	Callbacks        []string
	SchedCalls       []schedCall
	Decisions, Ests  uint64
}

// diff names the first field (and, for a list, the first element) on which
// two observations disagree, or returns "".
func (a *observed) diff(b *observed) string {
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			continue
		}
		name := va.Type().Field(i).Name
		if fa.Kind() == reflect.Slice {
			for j := 0; j < fa.Len() && j < fb.Len(); j++ {
				if !reflect.DeepEqual(fa.Index(j).Interface(), fb.Index(j).Interface()) {
					return fmt.Sprintf("%s[%d]: %+v vs %+v (lengths %d, %d)", name, j, fa.Index(j), fb.Index(j), fa.Len(), fb.Len())
				}
			}
			return fmt.Sprintf("%s: %d vs %d entries", name, fa.Len(), fb.Len())
		}
		if fa.Kind() == reflect.String && fa.Len() > 200 {
			return fmt.Sprintf("%s: %d vs %d bytes, contents differ", name, fa.Len(), fb.Len())
		}
		return fmt.Sprintf("%s: %+v vs %+v", name, fa, fb)
	}
	return ""
}

// oracleSet is the compiled task set every scenario shares, with the victim's
// solo instruction boundaries (the same with and without an arena).
type oracleSet struct {
	cfg                   accel.Config
	victim, urgent, lower *isa.Program
	inputs                map[*isa.Program]*tensor.Int8
	bounds                []uint64 // cycle after each victim instruction, solo
}

func newOracleSet(t *testing.T) *oracleSet {
	t.Helper()
	s := &oracleSet{cfg: accel.Big(), inputs: map[*isa.Program]*tensor.Int8{}}
	s.cfg.ParaIn, s.cfg.ParaOut, s.cfg.ParaHeight = 4, 4, 3 // multi-group tiling, many interrupt points
	build := func(g *model.Network, seed uint64) *isa.Program {
		p, _ := buildFunctional(t, g, s.cfg, true, seed)
		in := tensor.NewInt8(g.InC, g.InH, g.InW)
		tensor.FillPattern(in, seed)
		s.inputs[p] = in
		return p
	}
	s.victim = build(model.NewResNetTiny(), 11)
	s.urgent = build(model.NewPoolNet(), 13)
	s.lower = build(model.NewMobileNetTiny(), 17)
	u := iau.New(s.cfg, iau.PolicyVI)
	if err := u.Submit(1, s.request(t, "V", s.victim, false)); err != nil {
		t.Fatal(err)
	}
	for u.Pending() {
		// One instruction per call: the horizon is reached as soon as time moves.
		if err := iau.RunStepwise(u, u.Now+1); err != nil {
			t.Fatal(err)
		}
		s.bounds = append(s.bounds, u.Now)
	}
	return s
}

func (s *oracleSet) request(t *testing.T, label string, p *isa.Program, functional bool) *iau.Request {
	t.Helper()
	r := &iau.Request{Label: label, Prog: p}
	if functional {
		arena, err := accel.NewArena(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := accel.WriteInputAt(arena, p, s.inputs[p], 0); err != nil {
			t.Fatal(err)
		}
		r.Arena = arena
	}
	return r
}

// play runs one scenario under one loop and reports what happened, and how
// many instructions the loop ran one at a time rather than jumped over.
func (s *oracleSet) play(t *testing.T, sc scenario, run runFunc) (*observed, int) {
	t.Helper()
	draw := rand.New(rand.NewSource(int64(sc.seed))).Intn
	obs := &observed{}
	cfg := s.cfg
	if sc.cfg != nil {
		cfg = *sc.cfg
	}
	u := iau.New(cfg, sc.policy)

	var tr *trace.Tracer
	if sc.tracer {
		tr = trace.New(1 << 12) // small enough to wrap: aggregates must survive it
		u.AttachTracer(tr)
	}
	var fake *fakeSched
	var pol *sched.PolicyPredictive
	switch sc.sched {
	case "fake":
		fake = &fakeSched{}
		u.Sched = fake
	case "predictive":
		pol = sched.NewPredictive(cfg, sched.WithDecisionTrace(tr))
		pol.Bind(0, s.urgent, 40000, false)
		pol.Bind(1, s.victim, 0, false)
		pol.Bind(2, s.lower, 90000, false) // slot 3 stays unbound: cold → static fallback
		u.Sched = pol
	}
	if sc.faults {
		u.Faults = fault.New(sc.seed).
			SetRate(fault.SiteStall, 0.02).SetRate(fault.SiteHang, 0.004).
			SetRate(fault.SiteIRQLost, 0.3).SetRate(fault.SiteBackup, 0.3)
		u.WatchdogCycles = iau.WatchdogBound(cfg, s.victim, s.urgent, s.lower)
	}

	var reqs []*iau.Request
	index := map[*iau.Request]int{}
	submit := func(slot int, label string, p *isa.Program, at uint64, dropIfBusy bool) {
		r := s.request(t, label, p, sc.functional)
		r.DropIfBusy = dropIfBusy
		index[r] = len(reqs)
		reqs = append(reqs, r)
		if err := u.SubmitAt(slot, r, at); err != nil {
			t.Fatalf("%v: submit %s at %d: %v", sc, label, at, err)
		}
	}
	note := func(format string, args ...interface{}) {
		obs.Callbacks = append(obs.Callbacks, fmt.Sprintf("@%d ", u.Now)+fmt.Sprintf(format, args...))
	}
	resubmitted := 0
	u.OnComplete = func(c iau.Completion) {
		note("complete slot %d req %d", c.Slot, index[c.Req])
		if c.Req.Label == "L" && resubmitted < 2 {
			// Closed loop: a completion submits follow-up work, one request
			// due immediately and one a little later on a colder slot.
			resubmitted++
			submit(2, "L", s.lower, u.Now, false)
			submit(3, "L", s.lower, u.Now+uint64(draw(3000)), false)
		}
	}
	u.OnDrop = func(slot int, r *iau.Request) { note("drop slot %d req %d", slot, index[r]) }
	u.OnPreempt = func(p *iau.Preemption) { note("preempt %d by %d at pc %d", p.Victim, p.Preemptor, p.VictimPC) }
	u.OnFail = func(c iau.Completion, err error) {
		note("fail slot %d req %d salvage=%v: %v", c.Slot, index[c.Req], c.Salvage != nil, err)
		if c.Req.Retries < 2 {
			if err := u.Resubmit(c.Slot, c.Req, u.Now+uint64(draw(200))); err != nil {
				t.Fatalf("%v: resubmit: %v", sc, err)
			}
		}
	}

	// The victim starts alone at cycle 0, so until the first preemptor lands
	// its instruction boundaries are the solo ones.
	bounds := s.bounds
	k := len(bounds)/8 + draw(len(bounds)/3)
	first := uint64(int(bounds[k]) + sc.delta)
	submit(1, "V", s.victim, 0, false)
	if sc.urgentAt > 0 {
		submit(0, "U", s.urgent, sc.urgentAt, false)
	} else {
		submit(2, "L", s.lower, bounds[k/2], false) // lower priority, runnable while V runs
		submit(0, "U", s.urgent, first, false)
		submit(0, "U-drop", s.urgent, first+uint64(draw(6000)), true)
		submit(0, "U", s.urgent, first+uint64(8000+draw(30000)), false)
		submit(1, "V", s.victim, first+uint64(draw(20000)), false)
	}

	// Half the scenarios run to completion in one call, the others in seeded
	// slices so the horizon cuts stretches at arbitrary cycles.
	sliced := sc.seed%2 == 1
	for u.Pending() && obs.Err == "" {
		horizon := ^uint64(0)
		if sliced {
			horizon = u.Now + 1 + uint64(draw(5000))
		}
		if err := run(u, horizon); err != nil {
			obs.Err = err.Error()
		}
	}

	obs.Now, obs.Busy, obs.Idle = u.Now, u.BusyCycles, u.IdleCycles
	for _, c := range u.Completions {
		obs.Completions = append(obs.Completions, fmt.Sprintf("slot %d req %d", c.Slot, index[c.Req]))
	}
	for _, p := range u.Preemptions {
		obs.Preemptions = append(obs.Preemptions, *p)
	}
	for _, r := range reqs {
		c := *r
		c.Prog, c.Arena = nil, nil
		obs.Requests = append(obs.Requests, c)
		obs.Arenas = append(obs.Arenas, crc32.ChecksumIEEE(r.Arena))
	}
	obs.Fault = u.Fault
	if u.Faults != nil {
		obs.FaultReport = u.Faults.Report().String()
	}
	obs.Calc, obs.Xfer, obs.Hide = u.Eng.CycleStats()
	obs.SnapLive, _ = u.Eng.SnapshotBalance()
	if tr != nil {
		var buf bytes.Buffer
		if err := tr.WritePerfettoNamed(&buf, "inca accelerator"); err != nil {
			t.Fatalf("%v: perfetto: %v", sc, err)
		}
		if err := tr.Metrics().WriteJSON(&buf); err != nil {
			t.Fatalf("%v: metrics: %v", sc, err)
		}
		obs.TraceBytes = buf.String()
	}
	if fake != nil {
		obs.SchedCalls = fake.Calls
	}
	if pol != nil {
		obs.Decisions, obs.Ests = pol.Counters()
	}
	return obs, u.ExecCount()
}

// oracleMatrix is the scenario matrix: interrupt method × scheduler × faults ×
// tracer × arena × alignment of the first arrival with an instruction
// boundary. Seeds are fixed, so a failure names a reproducible cell.
func oracleMatrix() []scenario {
	var out []scenario
	seed := uint64(0x1ACA)
	for _, policy := range []iau.Policy{iau.PolicyVI, iau.PolicyLayerByLayer, iau.PolicyCPULike} {
		for _, schedName := range []string{"static", "fake", "predictive"} {
			for _, faults := range []bool{false, true} {
				for _, tracer := range []bool{false, true} {
					for _, functional := range []bool{false, true} {
						for _, delta := range []int{0, -1, +1} {
							seed++
							out = append(out, scenario{policy: policy, sched: schedName, faults: faults, tracer: tracer, functional: functional, delta: delta, seed: seed})
						}
					}
				}
			}
		}
	}
	return out
}

// cells are the named cells. Two make a jump wait: after a VI resume the
// engine's credit is drained while the plan's at the resume pc is not, and a
// resume at a Vir_SAVE point sets the SAVE-rewrite register, so the stretch
// steps until the credit rejoins the plan or the SAVE clears the register.
// Two run the set under a second cycle model and then the first again, each
// on a fresh IAU, so a plan lowered for one model is never read by the other.
func (s *oracleSet) cells(t *testing.T) []scenario {
	t.Helper()
	serving := s.cfg
	serving.DDRBandwidthGBps, serving.PrefetchBytes = 1.6, 96<<10
	vi := scenario{policy: iau.PolicyVI, sched: "static", seed: 0x2ACA}
	offPlan, saveValid, other, first := vi, vi, vi, vi
	offPlan.cell, offPlan.urgentAt = "resume-off-plan", s.resumeArrival(t, false)
	saveValid.cell, saveValid.urgentAt = "resume-save-valid", s.resumeArrival(t, true)
	other.cell, other.cfg = "serving-config", &serving
	first.cell, first.cfg = "first-config-again", &s.cfg
	return []scenario{offPlan, saveValid, other, first}
}

// resumeArrival returns an urgent arrival cycle that preempts the lone victim
// at an interrupt point whose resume leaves the SAVE-rewrite register set
// (saveValid) or clear, and the engine's credit off the plan either way.
func (s *oracleSet) resumeArrival(t *testing.T, saveValid bool) uint64 {
	t.Helper()
	p := s.victim
	for pc := len(p.Instrs) / 8; pc < len(p.Instrs); pc++ {
		if !p.IsInterruptPoint(pc) || (p.Instrs[pc].Op == isa.OpVirSave) != saveValid {
			continue
		}
		at := s.bounds[pc-1] // the victim's solo boundary before pc
		u := iau.New(s.cfg, iau.PolicyVI)
		if err := u.Submit(1, s.request(t, "V", s.victim, false)); err != nil {
			t.Fatal(err)
		}
		if err := u.SubmitAt(0, s.request(t, "U", s.urgent, false), at); err != nil {
			t.Fatal(err)
		}
		for u.Pending() && (len(u.Preemptions) == 0 || !u.Preemptions[0].Resumed) {
			if err := u.Run(u.Now + 1); err != nil {
				t.Fatal(err)
			}
		}
		if len(u.Preemptions) == 0 || u.Preemptions[0].VictimPC != pc {
			continue
		}
		if sv, onPlan := u.StretchState(); sv == saveValid && !onPlan {
			return at
		}
	}
	t.Fatalf("no interrupt point of the victim resumes with saveValid=%v and the credit off the plan", saveValid)
	return 0
}

// jumps reports whether a cell's Run may jump: a timing-only, untraced,
// fault-free cell (iau.jump's conditions on the run).
func (sc scenario) jumps() bool { return !sc.functional && !sc.tracer && !sc.faults }

// TestRunMatchesStepwise: over the whole matrix and the named cells, Run and
// the per-instruction loop it replaced agree on the clock, the busy/idle
// split, every completion, preemption and slot-reset record, every request
// counter and arena, the fault statistics and draw counts, the engine's cycle
// classes, the timeline, the serialized tracer output, every callback, and —
// call for call, argument for argument — on what they asked the Scheduler.
// Every cell that may jump must jump: Run steps fewer instructions than the
// referee there, so the comparison is never between two stepping loops.
func TestRunMatchesStepwise(t *testing.T) {
	s := newOracleSet(t)
	var preempts, kills, drops, contends, picks, jumped int
	plans := map[any]bool{}
	cells := append(oracleMatrix(), s.cells(t)...)
	for _, sc := range cells {
		want, stepped := s.play(t, sc, iau.RunStepwise)
		got, execs := s.play(t, sc, (*iau.IAU).Run)
		if d := got.diff(want); d != "" {
			t.Errorf("%v (seed %#x): Run vs runStepwise: %s", sc, sc.seed, d)
		}
		if sc.jumps() {
			if execs >= stepped {
				t.Errorf("%v: Run stepped %d instructions, the referee %d: the cell never jumped", sc, execs, stepped)
			}
			jumped++
		}
		if sc.cfg != nil {
			plans[s.victim.Plan] = true
		}
		preempts += len(want.Preemptions)
		kills += want.Fault.WatchdogKills
		for _, c := range want.Callbacks {
			if strings.Contains(c, "drop slot") {
				drops++
			}
		}
		for _, c := range want.SchedCalls {
			switch c.Kind {
			case "contend":
				contends++
			case "pick":
				picks++
			}
		}
	}
	// The matrix must actually reach what it claims to cover.
	if preempts == 0 || kills == 0 || drops == 0 || contends == 0 || picks == 0 {
		t.Fatalf("matrix too tame: %d preemptions, %d watchdog kills, %d drops, %d Contend and %d PickReady calls",
			preempts, kills, drops, contends, picks)
	}
	if len(plans) != 2 {
		t.Errorf("the two configuration cells left %d distinct plans on the victim, want 2 (one lowered per model)", len(plans))
	}
	t.Logf("%d scenarios (%d jumping): %d preemptions, %d watchdog kills, %d drops, %d Contend / %d PickReady calls compared",
		len(cells), jumped, preempts, kills, drops, contends, picks)
}

// TestOracleCatchesSeededBreaks shows the oracle has teeth: a faithful copy
// of Run passes every cell, and the same copy with any one mistake seeded into
// its quiet condition or its jump fails at least one.
func TestOracleCatchesSeededBreaks(t *testing.T) {
	s := newOracleSet(t)
	cells := append(oracleMatrix(), s.cells(t)...)
	for _, brk := range []struct {
		name       string
		brk        iau.StretchBreak
		wantCaught bool
		jumpOnly   bool // a jump's mistake: only cells that may jump can show it
	}{
		{"faithful copy", iau.BreakNone, false, false},
		{"stretch ignores arrivals[0]", iau.BreakIgnoreArrivals, true, false},
		{"lower-priority slot runnable counts as quiet under a Scheduler", iau.BreakStaticQuiet, true, false},
		{"jump also runs the crossing instruction", iau.BreakJumpRunsCrossing, true, true},
		{"jump leaves the engine credit unchanged", iau.BreakJumpKeepsCredit, true, true},
	} {
		caught, example := 0, ""
		for _, sc := range cells {
			if brk.jumpOnly && !sc.jumps() {
				continue
			}
			want, _ := s.play(t, sc, iau.RunStepwise)
			got, _ := s.play(t, sc, func(u *iau.IAU, h uint64) error { return u.RunBroken(h, brk.brk) })
			if d := got.diff(want); d != "" {
				if caught++; example == "" {
					example = fmt.Sprintf("%v: %s", sc, d)
				}
			}
		}
		if (caught > 0) != brk.wantCaught {
			t.Errorf("%s: caught in %d scenarios, want caught=%v (first: %s)", brk.name, caught, brk.wantCaught, example)
		}
		t.Logf("%s: caught in %d scenarios (first: %s)", brk.name, caught, example)
	}
}
