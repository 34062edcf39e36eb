package sched

import (
	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/trace"
)

// PolicyPredictive is a PREMA-style cost-model-driven scheduler for the
// IAU (implements iau.Scheduler). Instead of the paper's static rule —
// always preempt the lowest-priority task at the nearest boundary of one
// fixed interrupt method — it:
//
//   - maintains a per-slot remaining-cycle estimate, seeded from the
//     compiled stream's statistics (compiler.Analyze) and refined online
//     from each completion's measured cycle counters (EWMA, integer
//     arithmetic only);
//   - accrues PREMA tokens: priority weight × waiting time, so starved
//     low-priority work eventually outbids a fresh high-priority arrival;
//   - on each contention decision compares the estimated preemption cost
//     of every permitted interrupt method (iau.PreemptCostEstimate)
//     against the candidate's estimated slack-to-deadline, choosing both
//     the preemption moment and the cheapest adequate method — or not
//     preempting at all when the victim finishes within the slack;
//   - falls back to the static priority rule whenever any involved
//     estimate is cold, so a half-trained scheduler is never worse than
//     the paper's baseline.
//
// Decisions are timing-only: the IAU still enforces boundary legality for
// whatever method is picked, and every method's backup/restore pair is
// functionally lossless, so predictive scheduling cannot change results.
// The verify fuzzer's PolicyPredictive axis proves that bit-exactly.
//
// All arithmetic is integer and all iteration is index-ordered, so a
// seeded run's decision sequence is byte-identical across runs (the
// determinism lint patrols this file like the rest of the sim core).
type PolicyPredictive struct {
	cfg     accel.Config
	tracer  *trace.Tracer
	methods []iau.Policy

	slots [iau.NumSlots]predSlot

	// decisions counts preemptions this policy fired; estimates counts
	// estimator updates. Exposed for tests via Counters.
	decisions uint64
	estimates uint64
}

type predSlot struct {
	bound    bool
	prog     *isa.Program
	deadline uint64 // relative deadline, cycles; 0 = best-effort
	est      uint64 // estimated intrinsic cycles per request
	estValid bool   // false while cold (static fallback)
	samples  uint64
}

// methodCost prices preempting victim with method m. Contend runs at every
// instruction boundary, so every answer is an O(1) read of the IAU's cost
// table for the victim's program (built once, on the first query). A slot
// running its bound program gets the table's pure answer; a foreign program
// (e.g. a migrated-in request) is capped by its compiler-proven bound under
// VI, and otherwise gets the IAU's live-refined estimate.
func (p *PolicyPredictive) methodCost(u *iau.IAU, victim int, m iau.Policy) iau.MethodCost {
	s := &p.slots[victim]
	req := u.SlotRequest(victim)
	pc := u.SlotPC(victim)
	if s.prog == nil || req == nil || req.Prog != s.prog || pc < 0 {
		if m == iau.PolicyVI && req != nil && pc >= 0 && pc < len(req.Prog.Instrs) &&
			req.Prog.Instrs[pc].Op != isa.OpEnd && req.Prog.ResponseBound > 0 {
			// The bound caps wait+backup from any position: a conservative
			// answer that needs no table.
			mc := iau.MethodCost{Method: m}
			mc.WaitCycles, mc.Feasible = req.Prog.ResponseBound, true
			return mc
		}
		return u.PreemptCostEstimate(victim, m)
	}
	return iau.PreemptCostAt(u.Cfg, u.CostTable(s.prog), pc, m)
}

// PredictOption configures a PolicyPredictive.
type PredictOption func(*PolicyPredictive)

// WithMethods restricts the interrupt methods the policy may choose from
// (default: VI, layer-by-layer, CPU-like). A cluster that migrates parked
// tasks as PolicyVI tokens restricts its engines to WithMethods(PolicyVI).
func WithMethods(ms ...iau.Policy) PredictOption {
	return func(p *PolicyPredictive) {
		p.methods = p.methods[:0]
		for _, m := range ms {
			switch m {
			case iau.PolicyVI, iau.PolicyLayerByLayer, iau.PolicyCPULike:
				p.methods = append(p.methods, m)
			}
		}
	}
}

// WithDecisionTrace attaches a tracer: the policy emits KindEstimate marks
// (estimator updates, arg = |error| cycles) and KindDecision marks (fired
// preemptions and non-static dispatch picks). The policy never writes the
// tracer clock — it stamps marks with the IAU's explicit cycle — and its
// decisions are identical with or without a tracer attached.
func WithDecisionTrace(tr *trace.Tracer) PredictOption {
	return func(p *PolicyPredictive) { p.tracer = tr }
}

// NewPredictive creates a predictive scheduler for the given accelerator
// configuration. Bind programs to slots with Bind (or let sched.Run do it
// from the TaskSpecs via WithPredictive).
func NewPredictive(cfg accel.Config, opts ...PredictOption) *PolicyPredictive {
	p := &PolicyPredictive{
		cfg:     cfg,
		methods: []iau.Policy{iau.PolicyVI, iau.PolicyLayerByLayer, iau.PolicyCPULike},
	}
	for _, fn := range opts {
		fn(p)
	}
	if len(p.methods) == 0 {
		p.methods = []iau.Policy{iau.PolicyVI}
	}
	return p
}

// SeedEstimate models one request's intrinsic cycles from the compiled
// stream: the compiler statistics supply the DDR traffic (LOAD/SAVE
// bytes) and the virtual-instruction count, and the instruction model
// prices the compute ops. It deliberately ignores preemption overhead —
// the estimate tracks *intrinsic* work, which is what remaining-cycle
// subtraction needs.
func SeedEstimate(cfg accel.Config, p *isa.Program) uint64 {
	st := compiler.Analyze(p)
	est := xferCycles64(cfg, st.LoadBytes) + xferCycles64(cfg, st.SaveBytes) +
		uint64(st.VirtualInstrs)*uint64(cfg.FetchCycles)
	for _, in := range p.Instrs {
		switch in.Op {
		case isa.OpLoadW, isa.OpLoadD, isa.OpSave, isa.OpVirSave, isa.OpVirLoadD, isa.OpEnd:
		default:
			est += cfg.InstrCycles(p, in)
		}
	}
	return est
}

// xferCycles64 prices a byte count that may exceed the uint32 transfer
// model's range (it never does for real plans; clamping keeps the seed
// finite rather than wrapped).
func xferCycles64(cfg accel.Config, n uint64) uint64 {
	if n > 0xFFFFFFFF {
		n = 0xFFFFFFFF
	}
	return cfg.XferCycles(uint32(n))
}

// Bind associates a slot with its program and relative deadline (cycles;
// 0 = best-effort). cold=false seeds the estimator from the compiled
// stream so the policy is predictive from the first decision; cold=true
// leaves the estimate invalid until the first completion trains it —
// until then every decision involving the slot uses the static fallback.
func (p *PolicyPredictive) Bind(slot int, prog *isa.Program, deadline uint64, cold bool) {
	if slot < 0 || slot >= iau.NumSlots {
		return
	}
	s := &p.slots[slot]
	s.bound = true
	s.prog = prog
	s.deadline = deadline
	s.samples = 0
	if cold || prog == nil {
		s.est = 0
		s.estValid = false
		return
	}
	s.est = SeedEstimate(p.cfg, prog)
	s.estValid = true
}

// Counters returns (decisions fired, estimator updates) — test hooks.
func (p *PolicyPredictive) Counters() (uint64, uint64) { return p.decisions, p.estimates }

// weight is the PREMA priority weight: slot 0 (highest priority) weighs
// NumSlots, slot NumSlots-1 weighs 1.
func weight(slot int) uint64 { return uint64(iau.NumSlots - slot) }

// token returns the slot's accrued PREMA token: weight × waiting cycles.
func (p *PolicyPredictive) token(u *iau.IAU, slot int) uint64 {
	since := u.ReadySince(slot)
	if u.Now <= since {
		return 0
	}
	return weight(slot) * (u.Now - since)
}

// remaining estimates the cycles a slot's next-or-current request still
// needs: the per-request estimate minus the intrinsic work the in-flight
// request already performed. The second return is false when the slot's
// estimate is cold.
func (p *PolicyPredictive) remaining(u *iau.IAU, slot int) (uint64, bool) {
	s := &p.slots[slot]
	if !s.estValid {
		return 0, false
	}
	req := u.SlotRequest(slot)
	if req == nil {
		return s.est, true
	}
	consumed := intrinsicCycles(req)
	if consumed >= s.est {
		return 0, true
	}
	return s.est - consumed, true
}

// intrinsicCycles is the policy-independent work a request has performed:
// busy cycles minus interrupt tax, plus virtual-fetch overhead (which the
// request pays on the uninterrupted path too).
func intrinsicCycles(req *iau.Request) uint64 {
	c := req.ExecCycles + req.FetchCycles
	if req.InterruptCost > c {
		return 0
	}
	return c - req.InterruptCost
}

// slack returns the candidate's estimated slack-to-deadline at cycle Now:
// (submit + deadline) − Now − remaining. Negative means the deadline is
// already infeasible even if the task ran immediately.
func (p *PolicyPredictive) slack(u *iau.IAU, slot int, rem uint64) (int64, bool) {
	s := &p.slots[slot]
	if s.deadline == 0 {
		return 0, false
	}
	req := u.SlotRequest(slot)
	if req == nil {
		return 0, false
	}
	due := int64(req.SubmitCycle) + int64(s.deadline)
	return due - int64(u.Now) - int64(rem), true
}

// cheapestMethod returns the permitted method with the lowest modeled
// cost from the victim's current position. byResponse optimizes for the
// preemptor (wait+backup); otherwise total switch tax (backup+restore).
// Ties resolve in the fixed order VI < layer-by-layer < CPU-like. The
// second return is false when no permitted method has a reachable
// boundary (the victim finishes first — preemption is infeasible).
func (p *PolicyPredictive) cheapestMethod(u *iau.IAU, victim int, byResponse bool) (iau.MethodCost, bool) {
	var best iau.MethodCost
	found := false
	for _, m := range p.methods {
		mc := p.methodCost(u, victim, m)
		if !mc.Feasible {
			continue
		}
		cost := mc.Total()
		bestCost := best.Total()
		if byResponse {
			cost = mc.Response()
			bestCost = best.Response()
		}
		if !found || cost < bestCost {
			best = mc
			found = true
		}
	}
	return best, found
}

// fallbackMethod is the interrupt method static-fallback decisions use:
// the IAU's base policy when permitted, else the first permitted method.
func (p *PolicyPredictive) fallbackMethod(u *iau.IAU) iau.Policy {
	for _, m := range p.methods {
		if m == u.Policy {
			return m
		}
	}
	return p.methods[0]
}

// cold reports whether slot first or any of rest has an invalid estimate.
// It takes the two apart because Contend asks about (running, ready) at every
// contended instruction boundary and must not build a slice to do so.
func (p *PolicyPredictive) cold(first int, rest []int) bool {
	cold := func(s int) bool { return s < 0 || s >= iau.NumSlots || !p.slots[s].estValid }
	if cold(first) {
		return true
	}
	for _, s := range rest {
		if cold(s) {
			return true
		}
	}
	return false
}

// pickCandidate chooses the most urgent slot among ready (warm estimates
// assumed): the deadline task with the least slack when any deadline task
// is ready, else the task with the largest accrued token. Ties resolve to
// the lowest slot (static order), so the policy degrades to the paper's
// rule when nothing differentiates the candidates.
func (p *PolicyPredictive) pickCandidate(u *iau.IAU, ready []int) int {
	best := -1
	bestSlack := int64(0)
	for _, s := range ready {
		rem, _ := p.remaining(u, s)
		sl, has := p.slack(u, s, rem)
		if !has {
			continue
		}
		if best == -1 || sl < bestSlack {
			best, bestSlack = s, sl
		}
	}
	if best != -1 {
		return best
	}
	var bestTok uint64
	for _, s := range ready {
		if tok := p.token(u, s); best == -1 || tok > bestTok {
			best, bestTok = s, tok
		}
	}
	return best
}

// PickReady implements iau.Scheduler: dispatch choice when the
// accelerator is free.
func (p *PolicyPredictive) PickReady(u *iau.IAU, ready []int) int {
	if len(ready) == 0 {
		return -1
	}
	if p.cold(ready[0], ready[1:]) {
		return ready[0] // static: highest priority first
	}
	pick := p.pickCandidate(u, ready)
	if pick != ready[0] {
		// A non-static pick is a decision worth recording.
		p.decisions++
		p.tracer.Mark(trace.KindDecision, pick, u.Now, uint64(pick), "dispatch")
	}
	return pick
}

// Contend implements iau.Scheduler: the preemption decision table
// (DESIGN.md §15).
//
//	estimates cold                → static rule (preempt iff cand < running,
//	                                base-policy method)
//	no feasible method boundary   → never preempt
//	cand has a deadline           → preempt iff slack(cand) < remaining(running)
//	                                + response(cheapest) AND NOT (victim has a
//	                                deadline with slack(victim) ≤ slack(cand) —
//	                                EDF tie-break); method minimizes
//	                                wait+backup (preemptor-visible latency)
//	cand is best-effort           → preempt iff token(cand) > token(running)
//	                                + total(cheapest) AND total(cheapest) <
//	                                remaining(running) AND a victim deadline
//	                                survives remaining(cand)+total(cheapest);
//	                                method minimizes backup+restore (total
//	                                switch tax)
func (p *PolicyPredictive) Contend(u *iau.IAU, running int, ready []int) (int, bool, iau.Policy) {
	if len(ready) == 0 {
		return 0, false, iau.PolicyNone
	}
	if p.cold(running, ready) {
		cand := ready[0]
		if cand < running {
			return cand, true, p.fallbackMethod(u)
		}
		return 0, false, iau.PolicyNone
	}

	cand := p.pickCandidate(u, ready)
	remRun, _ := p.remaining(u, running)
	remCand, _ := p.remaining(u, cand)
	victimSlack, victimDeadline := p.slack(u, running, remRun)

	if sl, has := p.slack(u, cand, remCand); has {
		// Deadline-driven: preempt only when letting the victim finish
		// (remaining + the switch the candidate would then not need) blows
		// the candidate's slack. An already-infeasible deadline (sl < 0)
		// also preempts — shedding policy belongs to the dispatcher, the
		// scheduler just minimizes the damage. When the victim holds a
		// deadline too, the tighter slack wins (EDF tie-break): a candidate
		// that can still afford to wait never evicts a tighter victim.
		mc, ok := p.cheapestMethod(u, running, true)
		if !ok {
			return 0, false, iau.PolicyNone
		}
		if sl >= int64(remRun)+int64(mc.Response()) {
			return 0, false, iau.PolicyNone // victim finishes inside the slack
		}
		if victimDeadline && victimSlack <= sl {
			return 0, false, iau.PolicyNone
		}
		p.firedDecision(u, cand, mc.Method)
		return cand, true, mc.Method
	}

	// Token-driven (best-effort candidate): the candidate must out-token
	// the victim by more than the switch tax, and the tax must be worth
	// paying at all relative to just finishing the victim. A victim with a
	// deadline is additionally protected: the switch only fires when the
	// victim could absorb the candidate's whole run plus the switch tax
	// and still meet its deadline.
	mc, ok := p.cheapestMethod(u, running, false)
	if !ok {
		return 0, false, iau.PolicyNone
	}
	if victimDeadline && victimSlack < int64(remCand)+int64(mc.Total()) {
		return 0, false, iau.PolicyNone
	}
	if p.token(u, cand) > p.token(u, running)+mc.Total() && mc.Total() < remRun {
		p.firedDecision(u, cand, mc.Method)
		return cand, true, mc.Method
	}
	return 0, false, iau.PolicyNone
}

func (p *PolicyPredictive) firedDecision(u *iau.IAU, cand int, m iau.Policy) {
	p.decisions++
	label := ""
	if req := u.SlotRequest(cand); req != nil {
		label = req.Label
	}
	p.tracer.Mark(trace.KindDecision, cand, u.Now, uint64(m), label)
}

// TaskDone implements iau.Scheduler: refine the slot's estimate from the
// completed request's measured counters (EWMA with a 1/4 gain — integer
// arithmetic, converges within a handful of iterations in the tests).
func (p *PolicyPredictive) TaskDone(u *iau.IAU, slot int, req *iau.Request) {
	if slot < 0 || slot >= iau.NumSlots {
		return
	}
	s := &p.slots[slot]
	measured := intrinsicCycles(req)
	if s.estValid {
		var errAbs uint64
		if measured > s.est {
			errAbs = measured - s.est
		} else {
			errAbs = s.est - measured
		}
		p.estimates++
		p.tracer.Mark(trace.KindEstimate, slot, u.Now, errAbs, req.Label)
		// est += (measured − est)/4, signed, integer-only.
		s.est = uint64(int64(s.est) + (int64(measured)-int64(s.est))/4)
	} else {
		s.est = measured
		s.estValid = true
		p.estimates++
		p.tracer.Mark(trace.KindEstimate, slot, u.Now, 0, req.Label)
	}
	s.samples++
}
