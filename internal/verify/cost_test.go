package verify

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/cost"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/progcheck"
	"inca/internal/quant"
	"inca/internal/sched"
)

// This file keeps the stream walks internal/cost replaced as test oracles —
// the bodies iau.PreemptCostEstimate, iau.RemainingModelCycles,
// interrupt.worstGapAt and isa.InterruptPoints had before the table — and
// holds the table to them at every stream position.

// oracleInstrCycles is the normal-flow price of one instruction: transfers
// cost their modeled DDR time, virtual instructions their fetch-and-discard
// time, everything else the accelerator's instruction model.
func oracleInstrCycles(cfg accel.Config, p *isa.Program, in isa.Instruction) uint64 {
	switch in.Op {
	case isa.OpLoadW, isa.OpLoadD, isa.OpSave:
		return cfg.XferCycles(in.Len)
	case isa.OpVirSave, isa.OpVirLoadD:
		return uint64(cfg.FetchCycles)
	case isa.OpEnd:
		return 0
	default:
		return cfg.InstrCycles(p, in)
	}
}

// oracleBoundaryLegal is the switch-legality rule spelled out per method.
func oracleBoundaryLegal(ins []isa.Instruction, pc int, m iau.Policy) bool {
	switch m {
	case iau.PolicyCPULike:
		return true
	case iau.PolicyVI:
		if ins[pc].Op == isa.OpVirSave {
			return true
		}
		if ins[pc].Op == isa.OpVirLoadD {
			return pc == 0 || (ins[pc-1].Op != isa.OpVirSave && ins[pc-1].Op != isa.OpVirLoadD)
		}
		return false
	case iau.PolicyLayerByLayer:
		return pc != 0 && ins[pc].Op != isa.OpEnd && ins[pc].Layer != ins[pc-1].Layer
	default:
		return false
	}
}

// oraclePreemptCost walks forward from pc to the next boundary legal under
// m, accumulating what the victim must still execute first.
func oraclePreemptCost(cfg accel.Config, p *isa.Program, start int, m iau.Policy) iau.MethodCost {
	mc := iau.MethodCost{Method: m}
	ins := p.Instrs
	if m == iau.PolicyCPULike {
		buf := uint64(cfg.TotalBufferBytes())
		mc.BackupCycles = cfg.XferCycles(uint32(buf))
		mc.RestoreCycles = mc.BackupCycles
		mc.BackupBytes = buf
		mc.Feasible = ins[start].Op != isa.OpEnd
		return mc
	}
	pc := start
	for ; pc < len(ins); pc++ {
		if ins[pc].Op == isa.OpEnd {
			return mc
		}
		if oracleBoundaryLegal(ins, pc, m) {
			break
		}
		mc.WaitCycles += oracleInstrCycles(cfg, p, ins[pc])
	}
	if pc >= len(ins) {
		return mc
	}
	mc.Feasible = true
	if m == iau.PolicyLayerByLayer {
		return mc
	}
	if ins[pc].Op == isa.OpVirSave {
		mc.BackupCycles = cfg.XferCycles(ins[pc].Len)
		mc.BackupBytes = uint64(ins[pc].Len)
		pc++
	}
	for ; pc < len(ins) && ins[pc].Op == isa.OpVirLoadD; pc++ {
		mc.RestoreCycles += cfg.XferCycles(ins[pc].Len)
	}
	return mc
}

// oracleWorstGap is the old interrupt.worstGapAt.
func oracleWorstGap(cfg accel.Config, p *isa.Program, pointList []int, chargeBackup bool) uint64 {
	points := make(map[int]bool, len(pointList))
	for _, i := range pointList {
		points[i] = true
	}
	var worst, run uint64
	for i, in := range p.Instrs {
		if in.Op == isa.OpEnd {
			break
		}
		if points[i] {
			if chargeBackup && in.Op == isa.OpVirSave {
				run += cfg.XferCycles(in.Len)
			}
			if run > worst {
				worst = run
			}
			run = 0
		}
		if in.Op.Virtual() {
			continue
		}
		run += cfg.InstrCycles(p, in)
	}
	if run > worst {
		worst = run
	}
	return worst
}

// oracleInterruptPoints is the old isa.InterruptPoints loop.
func oracleInterruptPoints(p *isa.Program) []int {
	var pts []int
	for i, in := range p.Instrs {
		switch in.Op {
		case isa.OpVirSave:
			pts = append(pts, i)
		case isa.OpVirLoadD:
			if i == 0 || (p.Instrs[i-1].Op != isa.OpVirSave && p.Instrs[i-1].Op != isa.OpVirLoadD) {
				pts = append(pts, i)
			}
		}
	}
	return pts
}

// oracleLayerBoundaries lists the layer-by-layer switch points the old way:
// the stream start plus every change of layer before END.
func oracleLayerBoundaries(p *isa.Program) []int {
	var pts []int
	last := -1
	for i, in := range p.Instrs {
		if in.Op == isa.OpEnd {
			break
		}
		if int(in.Layer) != last {
			pts = append(pts, i)
			last = int(in.Layer)
		}
	}
	return pts
}

// checkTableAgainstWalks holds every cost-table answer for p to the oracle
// walks, at every stream position and under every interrupt method.
func checkTableAgainstWalks(cfg accel.Config, p *isa.Program) error {
	ins := p.Instrs
	tab := cost.NewTable(p, cfg)

	pts := oracleInterruptPoints(p)
	if got := p.InterruptPoints(); !reflect.DeepEqual(got, pts) {
		return fmt.Errorf("InterruptPoints = %v, old loop %v", got, pts)
	}
	isPoint := make([]bool, len(ins))
	for _, i := range pts {
		isPoint[i] = true
	}

	var remaining uint64 // oracle RemainingModelCycles, summed back to front
	for pc := len(ins) - 1; pc >= 0; pc-- {
		remaining += oracleInstrCycles(cfg, p, ins[pc])
		if got := tab.Remaining(pc); got != remaining {
			return fmt.Errorf("pc %d: Remaining = %d, walk %d", pc, got, remaining)
		}
		if got := p.IsInterruptPoint(pc); got != isPoint[pc] {
			return fmt.Errorf("pc %d: IsInterruptPoint = %v, old loop %v", pc, got, isPoint[pc])
		}
		if got, want := p.IsLayerBoundary(pc), oracleBoundaryLegal(ins, pc, iau.PolicyLayerByLayer); got != want {
			return fmt.Errorf("pc %d: IsLayerBoundary = %v, old rule %v", pc, got, want)
		}
		for _, m := range []iau.Policy{iau.PolicyVI, iau.PolicyLayerByLayer, iau.PolicyCPULike} {
			got, want := iau.PreemptCostAt(cfg, tab, pc, m), oraclePreemptCost(cfg, p, pc, m)
			if got != want {
				return fmt.Errorf("pc %d %v: table %+v, walk %+v", pc, m, got, want)
			}
		}
	}

	if got, want := tab.WorstPointGap(), oracleWorstGap(cfg, p, pts, true); got != want {
		return fmt.Errorf("WorstPointGap = %d, walk %d", got, want)
	}
	if got, want := tab.WorstLayerGap(), oracleWorstGap(cfg, p, oracleLayerBoundaries(p), false); got != want {
		return fmt.Errorf("WorstLayerGap = %d, walk %d", got, want)
	}
	var maxInstr uint64
	for _, in := range ins {
		maxInstr = max(maxInstr, cfg.InstrCycles(p, in))
	}
	if tab.MaxInstr != maxInstr {
		return fmt.Errorf("MaxInstr = %d, walk %d", tab.MaxInstr, maxInstr)
	}

	// One model, three derivations: the table's bound, the compiler's stamp
	// and progcheck's deliberately independent scan agree to the cycle.
	derived, rederived := tab.ResponseBound(), progcheck.RederiveBound(p, cfg)
	if derived != p.ResponseBound || derived != rederived {
		return fmt.Errorf("bound: cost %d, stamped %d, progcheck %d", derived, p.ResponseBound, rederived)
	}
	return nil
}

// namedNet is a network with the stream-name prefix its programs carry.
type namedNet struct {
	name string
	g    *model.Network
}

// compileBothPolicies compiles each network on the big config under VIEvery
// and under VIBudget at four times the VIEvery bound (the pairing inca-vet
// -models dslam and the benchmark's deploy_cold workload use).
func compileBothPolicies(t *testing.T, nets []namedNet) []*isa.Program {
	t.Helper()
	cfg := accel.Big()
	var progs []*isa.Program
	for _, n := range nets {
		q, err := quant.Synthesize(n.g, 21)
		if err != nil {
			t.Fatalf("%s: %v", n.name, err)
		}
		opt := cfg.CompilerOptions()
		opt.VI = compiler.VIEvery{}
		every, err := compiler.Compile(q, opt)
		if err != nil {
			t.Fatalf("%s: %v", n.name, err)
		}
		every.Name = n.name + "/vi-every"
		opt.VI = compiler.VIBudget{MaxResponseCycles: every.ResponseBound * 4}
		budget, err := compiler.Compile(q, opt)
		if err != nil {
			t.Fatalf("%s budgeted: %v", n.name, err)
		}
		budget.Name = n.name + "/vi-budget"
		progs = append(progs, every, budget)
	}
	return progs
}

// dslamPrograms compiles the paper's DSLAM task mix (the set inca-vet
// -models dslam verifies) under both placement policies on the big config.
func dslamPrograms(t *testing.T) []*isa.Program {
	t.Helper()
	loop, err := model.NewResNet(18, 3, 60, 80)
	if err != nil {
		t.Fatal(err)
	}
	return compileBothPolicies(t, []namedNet{
		{"FE", model.NewSuperPoint(60, 80)},
		{"MAP", model.NewSuperPoint(90, 120)},
		{"LOOP", loop},
	})
}

// TestCostTableMatchesWalks: for every program of the deterministic fuzz
// corpus (all batch sizes and VI placements) and the DSLAM set, the cost
// table equals the walks it replaced at every pc × {VI, layer-by-layer,
// CPU-like}, the point predicates equal the old loops, and the bound has one
// value however it is derived.
func TestCostTableMatchesWalks(t *testing.T) {
	cases, positions := 0, 0
	for index := 0; cases < wantCases; index++ {
		if index >= 3*wantCases {
			t.Fatalf("only %d/%d generated cases compiled after %d draws", cases, wantCases, index)
		}
		c := NewCase(masterSeed, index)
		cfg := Configs()[c.CfgIdx]
		p, _, err := compileVictim(c, cfg, mix(c.Seed, c.Index)^0xDDC0FFEE)
		if IsSkip(err) {
			continue
		}
		if err != nil {
			t.Fatalf("case %s: compile: %v", c, err)
		}
		if err := checkTableAgainstWalks(cfg, p); err != nil {
			t.Fatalf("case %s (%s): %v", c, c.Repro(), err)
		}
		cases++
		positions += len(p.Instrs)
	}
	if testing.Short() {
		t.Logf("%d corpus programs, %d positions (DSLAM set skipped in -short)", cases, positions)
		return
	}
	for _, p := range dslamPrograms(t) {
		if err := checkTableAgainstWalks(accel.Big(), p); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		positions += len(p.Instrs)
	}
	t.Logf("%d corpus programs + DSLAM set, %d positions x 3 methods", cases, positions)
}

// TestCostPinnedDSLAM pins the derived bounds of the DSLAM programs to the
// values the per-package walks returned before internal/cost replaced them
// (captured at the parent commit): the table is a refactor, not a re-model.
// The native (none) blocking column is accel.SoloReplay, the occupancy the
// runtime simulates: the real-instruction cycles plus one fetch per virtual
// instruction.
func TestCostPinnedDSLAM(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the full DSLAM model set")
	}
	type pin struct {
		watchdog, pointGap, layerGap uint64
		blocking                     [4]uint64 // none, VI, layer-by-layer, CPU-like
	}
	want := map[string]pin{
		"FE/vi-every":    {8666, 10570, 117740, [4]uint64{241510, 10570, 117740, 111866}},
		"FE/vi-budget":   {8666, 43385, 117740, [4]uint64{241278, 43385, 117740, 111866}},
		"MAP/vi-every":   {12986, 15610, 259230, [4]uint64{585664, 15610, 259230, 114026}},
		"MAP/vi-budget":  {12986, 64453, 259230, [4]uint64{585256, 64453, 259230, 114026}},
		"LOOP/vi-every":  {6944, 4795, 143514, [4]uint64{570688, 4795, 143514, 111005}},
		"LOOP/vi-budget": {6944, 19100, 143514, [4]uint64{570051, 19100, 143514, 111005}},
	}
	cfg := accel.Big()
	for _, p := range dslamPrograms(t) {
		tab := cost.NewTable(p, cfg)
		got := pin{
			watchdog: iau.WatchdogBound(cfg, p),
			pointGap: tab.WorstPointGap(),
			layerGap: tab.WorstLayerGap(),
		}
		for i, pol := range []iau.Policy{iau.PolicyNone, iau.PolicyVI, iau.PolicyLayerByLayer, iau.PolicyCPULike} {
			b, err := sched.BlockingBound(cfg, p, pol)
			if err != nil {
				t.Fatalf("%s: BlockingBound(%v): %v", p.Name, pol, err)
			}
			got.blocking[i] = b
		}
		if w, ok := want[p.Name]; !ok || got != w {
			t.Errorf("%s: got %+v, want %+v", p.Name, got, w)
		}
	}
}

// TestPreemptCostEstimateLive steps a victim through a storm of preemptions
// one cycle at a time and holds the IAU's live queries to the old walks at
// every stop: PreemptCostEstimate is the table's answer plus the one
// refinement only the slot's registers know (a Vir_SAVE whose bytes an
// earlier backup of the same save window already stored transfers only the
// remainder), RemainingModelCycles is the table's prefix subtraction.
func TestPreemptCostEstimateLive(t *testing.T) {
	cfg := Configs()[0]
	// One SAVE per tile over four out-channel groups: the save window holds
	// several Vir_SAVEs with one SaveID, which is what the refinement needs.
	q, err := quant.Synthesize(Recipe{C: 3, H: 12, W: 16, Ops: []OpSpec{
		{Kind: 0, K: 3, Stride: 1, Pad: 1, OutC: 4 * cfg.ParaOut, ReLU: true},
		{Kind: 0, K: 3, Stride: 1, Pad: 1, OutC: 4 * cfg.ParaOut},
	}}.Build(), 7)
	if err != nil {
		t.Fatal(err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	opt.BlobsPerSave = 0
	victim, err := compiler.Compile(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	probe, _, err := compileRecipe(probeRecipe(), cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	solo := accel.SoloReplay(cfg, victim, nil)

	u := iau.New(cfg, iau.PolicyVI)
	req := &iau.Request{Label: "victim", Prog: victim}
	if err := u.Submit(1, req); err != nil {
		t.Fatal(err)
	}
	for at := uint64(1); at < 4*solo; at += solo / 64 {
		if err := u.SubmitAt(0, &iau.Request{Label: "probe", Prog: probe, DropIfBusy: true}, at); err != nil {
			t.Fatal(err)
		}
	}

	ins := victim.Instrs
	remaining := make([]uint64, len(ins)+1)
	for pc := len(ins) - 1; pc >= 0; pc-- {
		remaining[pc] = remaining[pc+1] + oracleInstrCycles(cfg, victim, ins[pc])
	}
	stops, refined := 0, 0
	for u.Pending() {
		if err := u.Run(u.Now + 1); err != nil {
			t.Fatal(err)
		}
		if u.SlotRequest(1) != req || u.SlotPC(1) < 0 {
			continue
		}
		pc, regs := u.SlotPC(1), u.Registers(1)
		stops++
		if got, ok := u.RemainingModelCycles(1); !ok || got != remaining[pc] {
			t.Fatalf("pc %d: RemainingModelCycles = (%d, %v), walk %d", pc, got, ok, remaining[pc])
		}
		for _, m := range []iau.Policy{iau.PolicyVI, iau.PolicyLayerByLayer, iau.PolicyCPULike} {
			want := oraclePreemptCost(cfg, victim, pc, m)
			if in := ins[pc]; m == iau.PolicyVI && in.Op == isa.OpVirSave && regs.SaveValid && regs.SaveID == in.SaveID {
				skip := min(regs.SaveLength, in.Len)
				want.BackupCycles = cfg.XferCycles(in.Len - skip)
				want.BackupBytes = uint64(in.Len - skip)
				refined++
			}
			if got := u.PreemptCostEstimate(1, m); got != want {
				t.Fatalf("pc %d %v (regs %+v): estimate %+v, walk %+v", pc, m, regs, got, want)
			}
		}
	}
	if req.Preemptions == 0 || refined == 0 {
		t.Fatalf("%d stops, %d preemptions, %d save-skip refinements: the live refinement was never exercised",
			stops, req.Preemptions, refined)
	}
	t.Logf("%d stops, %d preemptions, %d save-skip refinements", stops, req.Preemptions, refined)
}

// TestEnginePricesMatchConfig: accel.Engine prices instructions from
// constants it hoists once at construction and a one-layer CALC cache
// (DESIGN.md §21); internal/cost, the compiler and progcheck price them
// through Config.InstrCycles and Config.XferCycles. One model, two readings:
// on every instruction of the fuzz corpus, the DSLAM set and the rest of the
// benchmark's deploy_cold set, and on transfer lengths around every power of
// two, the readings are equal to the cycle — on the three stock
// configurations and on 20 seeded random ones. (With the prefetch credit
// drained, Exec's answer is the bare price.)
func TestEnginePricesMatchConfig(t *testing.T) {
	var progs []*isa.Program
	for index := 0; len(progs) < wantCases; index++ {
		if index >= 3*wantCases {
			t.Fatalf("only %d/%d generated cases compiled after %d draws", len(progs), wantCases, index)
		}
		c := NewCase(masterSeed, index)
		p, _, err := compileVictim(c, Configs()[c.CfgIdx], mix(c.Seed, c.Index)^0xDDC0FFEE)
		if IsSkip(err) {
			continue
		}
		if err != nil {
			t.Fatalf("case %s: compile: %v", c, err)
		}
		progs = append(progs, p)
	}
	if !testing.Short() {
		deep, err := model.NewResNet(101, 3, 96, 128)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, dslamPrograms(t)...) // also deploy_cold's first three networks
		progs = append(progs, compileBothPolicies(t, []namedNet{
			{"resnet101", deep},
			{"vgg16", model.NewVGG16(3, 96, 128)},
			{"mobilenet", model.NewMobileNetV1(3, 96, 128)},
		})...)
	}

	rng := rand.New(rand.NewSource(int64(masterSeed)))
	lengths := []uint32{0, 1}
	for k := 1; k <= 32; k++ {
		for d := -1; d <= 1; d++ {
			if n := int64(1)<<k + int64(d); n <= math.MaxUint32 {
				lengths = append(lengths, uint32(n))
			}
		}
	}
	for i := 0; i < 10000; i++ {
		lengths = append(lengths, rng.Uint32()>>rng.Intn(32))
	}

	// Whole bytes-per-cycle values d with d·(1/d) != 1 in float64 (49, 98,
	// 103, ...): dividing by one and multiplying by its reciprocal disagree on
	// exact multiples, so a hoisted reciprocal would show on them.
	var awkward []int
	for d := 1; d < 1024; d++ {
		if x := float64(d); x*(1/x) != 1 {
			awkward = append(awkward, d)
		}
	}
	configs := []accel.Config{accel.Big(), accel.Small(), accel.Serving()}
	for i := 0; i < 20; i++ {
		c := accel.Big()
		c.Name = fmt.Sprintf("random-%d", i)
		c.FreqMHz = 50 + rng.Intn(1000)
		c.DDRBandwidthGBps = 0.05 + 40*rng.Float64()
		if i%2 == 1 {
			c.DDRBandwidthGBps = float64(awkward[rng.Intn(len(awkward))]*c.FreqMHz) / 1000
		}
		c.CalcPipeCycles = rng.Intn(64)
		c.XferSetupCycles = rng.Intn(256)
		c.PrefetchBytes = rng.Intn(2 << 20)
		configs = append(configs, c)
	}

	instrs := 0
	for _, cfg := range configs {
		eng := accel.NewEngine(cfg) // one engine per config: the CALC cache must follow program changes
		price := func(p *isa.Program, in isa.Instruction) uint64 {
			eng.DrainPipeline()
			c, err := eng.Exec(nil, p, in, 0)
			if err != nil {
				t.Fatalf("%s: %s: %v", cfg.Name, in, err)
			}
			return c
		}
		for _, p := range progs {
			for pc, in := range p.Instrs {
				if got, want := price(p, in), cfg.InstrCycles(p, in); got != want {
					t.Fatalf("%s: %s pc %d (%s): engine prices %d cycles, Config.InstrCycles %d", cfg.Name, p.Name, pc, in, got, want)
				}
			}
			instrs += len(p.Instrs)
		}
		burst := max(1, uint32(math.Round(cfg.BytesPerCycle())))
		for _, n := range lengths {
			for _, n := range []uint32{n, n - n%burst} { // as drawn, and snapped to whole cycles
				if got, want := price(&isa.Program{}, isa.Instruction{Op: isa.OpLoadD, Len: n}), cfg.XferCycles(n); got != want {
					t.Fatalf("%s: transfer of %d bytes: engine prices %d cycles, Config.XferCycles %d", cfg.Name, n, got, want)
				}
			}
		}
	}
	t.Logf("%d programs, %d instruction prices and %d transfer lengths on each of %d configs", len(progs), instrs/len(configs), 2*len(lengths), len(configs))
}
