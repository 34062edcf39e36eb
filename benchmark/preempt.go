package main

import (
	"fmt"
	"time"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/sched"
	"inca/internal/trace"
)

// runPreemptMix is the paper's Fig. 5 scenario, timing-only: a feature
// extractor (FE, SuperPoint) arrives every frame period in slot 0 with the
// period as its deadline, while place recognition (PR, a deep ResNet) runs
// continuously in slot 1 and is preempted each time. Open loop: FE arrivals
// are periodic in simulated time, so the generator is never late. A
// repetition is one slice of simulated time with a seeded FE phase offset;
// an op is one FE frame.
func runPreemptMix(e *env) (*result, error) {
	cfg := accel.Big()
	cfg.Workers = 1
	res := &result{sim: simObs{freqMHz: cfg.FreqMHz}}
	sz := e.sz

	type programs struct{ fe, pr *isa.Program }
	slice := func(p programs, k int, policy iau.Policy, offset, horizon time.Duration, opts ...sched.Option) (*sched.Result, time.Duration, error) {
		specs := []sched.TaskSpec{
			{Name: "FE", Slot: 0, Prog: p.fe, Period: sz.fePeriod, Deadline: sz.fePeriod, Offset: offset},
			{Name: "PR", Slot: 1, Prog: p.pr, Continuous: true},
		}
		var out *sched.Result
		wall, err := e.call("sched", "sched.run."+policyName[policy], k, func() (err error) {
			out, err = sched.Run(cfg, policy, specs, horizon, opts...)
			return err
		})
		return out, wall, err
	}

	p, err := setup(e, res, func() (programs, error) {
		var p programs
		pr, err := model.NewResNet(sz.prDepth, 3, sz.pr.h, sz.pr.w)
		if err != nil {
			return p, err
		}
		if p.fe, err = compile(cfg, model.NewSuperPoint(sz.fe.h, sz.fe.w), e.sub(0), compiler.VINone{}, 1); err != nil {
			return p, err
		}
		if p.pr, err = compile(cfg, pr, e.sub(1), compiler.VIEvery{}, 1); err != nil {
			return p, err
		}
		_, _, err = slice(p, 0, iau.PolicyVI, 0, sz.sliceSim/4) // warm-up, discarded
		return p, err
	})
	if err != nil {
		return nil, err
	}
	res.sim.progs = []*isa.Program{p.fe, p.pr}
	bound := compiler.Analyze(p.pr).ResponseBound

	r := rng{s: e.sub(2)}
	offsets := make([]time.Duration, sz.slices)
	for i := range offsets {
		offsets[i] = time.Duration(r.next() % uint64(sz.fePeriod))
	}

	// record folds one VI slice into the simulated observations and checks
	// its invariants.
	var worst float64
	var backupBytes, restoreCycles, fetch, exec uint64
	record := func(out *sched.Result) {
		s := &res.sim
		fe, pr := out.Tasks["FE"], out.Tasks["PR"]
		if fe.Submitted-fe.Completed > 1 || fe.Dropped > 0 {
			res.fail(fe.Submitted-fe.Completed+fe.Dropped, "FE ledger: submitted %d completed %d dropped %d", fe.Submitted, fe.Completed, fe.Dropped)
		}
		s.cycles = append(s.cycles, fe.ExecCycles/uint64(fe.Completed))
		s.latency = append(s.latency, fe.Latencies...)
		s.offered += fe.Completed + fe.Dropped
		s.met += fe.Completed - fe.DeadlineMisses
		s.done += pr.Completed
		s.span += out.Horizon
		fetch += pr.FetchCycles
		exec += pr.ExecCycles
		for _, pre := range out.Preemptions {
			if pre.Latency() > bound {
				res.fail(1, "response %d cycles at PR pc %d exceeds the proven bound %d", pre.Latency(), pre.VictimPC, bound)
			}
			s.resp = append(s.resp, pre.Latency())
			s.cost = append(s.cost, pre.Cost())
			backupBytes += pre.BackupBytes
			restoreCycles += pre.ResumeCycles
			if x := pct(float64(pre.Latency()), float64(bound)); x > worst {
				worst = x
			}
		}
	}

	var viWall, viSim float64
	err = e.timed(res, sz.slices, func(i int, first bool) (int, time.Duration, error) {
		out, wall, err := slice(p, i, iau.PolicyVI, offsets[i%sz.slices], sz.sliceSim)
		if err != nil {
			return 0, 0, err
		}
		fe := out.Tasks["FE"]
		res.attempted += fe.Completed
		if first {
			record(out)
		}
		viWall += wall.Seconds()
		viSim += sz.sliceSim.Seconds()
		return fe.Completed, wall, nil
	})
	if err != nil {
		return nil, err
	}
	res.setLayer("iau.resp_over_bound_max_pct", worst)
	if e.rec == nil {
		return res, nil
	}

	// Traced run: the per-layer numbers behind the scenario.
	n := float64(len(res.sim.resp))
	res.setLayer("iau.preemptions.vi", n)
	res.setLayer("iau.backup_kb_per_preempt.vi", float64(backupBytes)/1024/n)
	res.setLayer("iau.restore_cycles_per_preempt.vi", float64(restoreCycles)/n)
	res.setLayer("iau.fetch_overhead_pct", pct(float64(fetch), float64(exec)))
	res.setLayer("sched.host_ms_per_sim_s.vi", 1e3*viWall/viSim)
	res.setLayer("iau.sim_mcycles_per_host_s", float64(cfg.SecondsToCycles(viSim))/1e6/viWall)

	// The two baseline interrupt policies on the first two slices.
	for _, pol := range []iau.Policy{iau.PolicyLayerByLayer, iau.PolicyCPULike} {
		var resp, cost []uint64
		for i := 0; i < 2 && i < sz.slices; i++ {
			out, _, err := slice(p, i, pol, offsets[i], sz.sliceSim)
			if err != nil {
				return nil, err
			}
			for _, pre := range out.Preemptions {
				resp = append(resp, pre.Latency())
				cost = append(cost, pre.Cost())
			}
		}
		name := policyName[pol]
		res.setLayer("iau.preemptions."+name, float64(len(resp)))
		res.setLayer("iau.resp_cycles_p50."+name, quantile(resp, 0.50))
		res.setLayer("iau.resp_cycles_p99."+name, quantile(resp, 0.99))
		if pol == iau.PolicyCPULike {
			res.setLayer("iau.cost_cycles_per_preempt.cpulike", mean(cost))
		}
	}

	// The first VI slice again with a tracer attached, against its untraced
	// time in the loop above.
	tr := trace.New(0)
	_, attached, err := slice(p, 0, iau.PolicyVI, offsets[0], sz.sliceSim, sched.WithTracer(tr))
	if err != nil {
		return nil, err
	}
	plain := res.timing.walls[0]
	res.setLayer("trace.attach_overhead_pct", pct(attached.Seconds()-plain, plain))
	res.setLayer("trace.events_per_sim_s", float64(tr.Total())/sz.sliceSim.Seconds())

	// The IAU's own per-instruction cost, and the engine's timing path alone
	// under it: PR solo, timing-only.
	aw, w, instrs, err := e.timingRungs(cfg, p.pr, 1, 0)
	if err != nil {
		return nil, err
	}
	res.setLayer("iau.timing_ns_per_instr", float64(w)/float64(len(p.pr.Instrs)))
	res.setLayer("accel.timing_ns_per_instr", float64(aw)/float64(instrs))
	res.split = map[string]float64{"accel (timing path, PR solo)": float64(aw), "iau (over accel, PR solo)": float64(w - aw)}
	return res, e.schedPolicies(res)
}

var policyName = map[iau.Policy]string{
	iau.PolicyVI: "vi", iau.PolicyLayerByLayer: "layerwise", iau.PolicyCPULike: "cpulike",
}

// schedPolicies replays the three-task FE/MAP/LOOP set of BENCH_sched.json on
// the small accelerator under the declared static slots, a rate-monotonic
// assignment, and the predictive policy on the declared slots. Its shapes are
// the ones infer_dense and deploy_cold already carry (60x80, 90x120, 60x80).
func (e *env) schedPolicies(res *result) error {
	cfg := accel.Small()
	cfg.Workers = 1
	loop, err := model.NewResNet(18, 3, e.sz.dense[1].h, e.sz.dense[1].w)
	if err != nil {
		return err
	}
	tasks := []struct {
		name             string
		net              *model.Network
		period, deadline time.Duration
		dropBusy         bool
	}{
		{"FE", model.NewSuperPoint(e.sz.dense[0].h, e.sz.dense[0].w), 15 * time.Millisecond, 15 * time.Millisecond, true},
		{"MAP", model.NewSuperPoint(e.sz.deploy[1].h, e.sz.deploy[1].w), 50 * time.Millisecond, 0, true},
		{"LOOP", loop, 40 * time.Millisecond, 25 * time.Millisecond, false},
	}
	progs := make([]*isa.Program, len(tasks))
	for i, t := range tasks {
		if progs[i], err = compile(cfg, t.net, e.sub(uint64(20+i)), compiler.VIEvery{}, 1); err != nil {
			return err
		}
	}
	for _, sc := range []struct {
		name       string
		slots      [3]int
		predictive bool
	}{
		{"static", [3]int{0, 1, 2}, false},
		{"rm", [3]int{0, 2, 1}, false},
		{"predictive", [3]int{0, 1, 2}, true},
	} {
		specs := make([]sched.TaskSpec, len(tasks))
		for i, t := range tasks {
			specs[i] = sched.TaskSpec{Name: t.name, Slot: sc.slots[i], Prog: progs[i], Period: t.period, Deadline: t.deadline, DropIfBusy: t.dropBusy}
		}
		var opts []sched.Option
		var pol *sched.PolicyPredictive
		if sc.predictive {
			pol = sched.NewPredictive(cfg)
			opts = append(opts, sched.WithPredictive(pol))
		}
		var out *sched.Result
		wall, err := e.call("sched", "sched.run."+sc.name, 0, func() (err error) {
			out, err = sched.Run(cfg, iau.PolicyVI, specs, e.sz.schedSim, opts...)
			return err
		})
		if err != nil {
			return fmt.Errorf("three-task set, %s: %w", sc.name, err)
		}
		preempted := 0
		for _, name := range out.TaskNames {
			preempted += out.Tasks[name].Preempted
		}
		res.setLayer("sched.preemptions."+sc.name, float64(preempted))
		res.setLayer("sched.sla_pct."+sc.name, 100*out.MeanSLAAttainment())
		if pol != nil {
			decisions, _ := pol.Counters()
			res.setLayer("sched.decisions.predictive", float64(decisions))
			res.setLayer("sched.jain_pct.predictive", 100*out.JainFairness())
			res.setLayer("sched.host_ms_per_sim_s.predictive", 1e3*wall.Seconds()/e.sz.schedSim.Seconds())
		}
	}
	return nil
}
