package main

import (
	"encoding/json"
	"runtime"
	"time"

	"inca/internal/compiler"
)

// metric declares one number the benchmark reports. Exact metrics are
// simulated or counted: at one seed they repeat bit-for-bit, and a change that
// was meant to touch only the host side must leave them identical. Moves is
// the prediction written down before measuring: which end-to-end metric, on
// which workload, a per-layer metric should move.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Exact  bool
	Moves  string
}

const (
	lo = "lower"
	hi = "higher"
)

// endToEnd lists what the two users of the system see. Host metrics are what
// the developer waits for; sim_*, prog_*, resp_bound_* and virtual_kb are what
// the robot integrator gets from the modelled accelerator. Simulated durations
// are reported in accelerator cycles (divide by Config.FreqMHz for µs).
//
// The bounds of exact metrics are wide because the acceptance runs vary the
// seed, and the seed moves them (arrival streams, phase offsets, fault
// draws); at one seed they do not move at all, which is what -sets checks.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: lo, Bound: 0.25},
	{Name: "host_ops_per_s", Unit: "op/s", Better: hi, Bound: 0.25},
	{Name: "host_op_ms_p50", Unit: "ms", Better: lo, Bound: 0.25},
	{Name: "host_alloc_mb_per_op", Unit: "MB", Better: lo, Bound: 0.20},
	{Name: "sim_cycles_per_op", Unit: "cycles", Better: lo, Bound: 0.01, Exact: true},
	{Name: "sim_resp_cycles_p50", Unit: "cycles", Better: lo, Bound: 0.25, Exact: true},
	{Name: "sim_resp_cycles_p99", Unit: "cycles", Better: lo, Bound: 0.20, Exact: true},
	{Name: "sim_preempt_cost_cycles", Unit: "cycles", Better: lo, Bound: 0.10, Exact: true},
	{Name: "sim_deadline_met_pct", Unit: "%", Better: hi, Bound: 0.05, Exact: true},
	{Name: "sim_goodput_per_s", Unit: "1/s", Better: hi, Bound: 0.02, Exact: true},
	{Name: "sim_latency_cycles_p50", Unit: "cycles", Better: lo, Bound: 0.10, Exact: true},
	{Name: "sim_latency_cycles_p99", Unit: "cycles", Better: lo, Bound: 0.10, Exact: true},
	{Name: "prog_kinstrs", Unit: "kinstr", Better: lo, Bound: 0.01, Exact: true},
	{Name: "resp_bound_cycles", Unit: "cycles", Better: lo, Bound: 0.01, Exact: true},
	{Name: "virtual_kb", Unit: "KB", Better: lo, Bound: 0.01, Exact: true},
}

// perLayer lists the traced run's metrics, grouped by the module they
// measure. A traced run of a workload reports every one of them; those the
// workload does not exercise read 0.
var perLayer = []metric{
	{Name: "quant.synth_ms", Unit: "ms", Better: lo, Moves: "host_ops_per_s on deploy_cold; setup_s elsewhere"},

	{Name: "compiler.compile_ms.every", Unit: "ms", Better: lo, Moves: "host_ops_per_s on deploy_cold; setup_s on dslam_mission"},
	{Name: "compiler.compile_ms.budget", Unit: "ms", Better: lo, Moves: "host_ops_per_s on deploy_cold"},
	{Name: "compiler.kinstrs_per_s", Unit: "kinstr/s", Better: hi, Moves: "host_ops_per_s on deploy_cold"},
	{Name: "compiler.alloc_mb", Unit: "MB", Better: lo, Moves: "host_alloc_mb_per_op on deploy_cold"},
	{Name: "compiler.points.every", Unit: "count", Better: lo, Exact: true, Moves: "resp_bound_cycles, virtual_kb, prog_kinstrs on deploy_cold"},
	{Name: "compiler.points.budget", Unit: "count", Better: lo, Exact: true, Moves: "virtual_kb, prog_kinstrs down and resp_bound_cycles, sim_resp_cycles_p99 up on deploy_cold"},
	{Name: "compiler.vir_save_kb.every", Unit: "KB", Better: lo, Exact: true, Moves: "virtual_kb on deploy_cold"},
	{Name: "compiler.vir_save_kb.budget", Unit: "KB", Better: lo, Exact: true, Moves: "virtual_kb on deploy_cold"},
	{Name: "compiler.fused_adds", Unit: "count", Better: hi, Exact: true, Moves: "sim_cycles_per_op on infer_dense"},

	{Name: "progcheck.verify_ms", Unit: "ms", Better: lo, Moves: "host_ops_per_s on deploy_cold only"},
	{Name: "progcheck.kinstrs_per_s", Unit: "kinstr/s", Better: hi, Moves: "host_ops_per_s on deploy_cold only"},
	{Name: "progcheck.checked_resumes", Unit: "count", Better: hi, Exact: true, Moves: "none; coverage of the resume replay"},
	{Name: "progcheck.sampled_models", Unit: "count", Better: lo, Exact: true, Moves: "none; models whose resume replay was sampled, not exhaustive"},
	{Name: "progcheck.rejects", Unit: "count", Better: lo, Exact: true, Moves: "failed ops on deploy_cold (must be 0)"},

	{Name: "isa.encode_ms", Unit: "ms", Better: lo, Moves: "host_ops_per_s on deploy_cold"},
	{Name: "isa.decode_ms", Unit: "ms", Better: lo, Moves: "host_ops_per_s on deploy_cold"},
	{Name: "isa.encoded_kb", Unit: "KB", Better: lo, Exact: true, Moves: "prog_kinstrs on deploy_cold"},

	{Name: "accel.exec_us_per_instr.load_w", Unit: "us", Better: lo, Moves: "host_ops_per_s on serve_* (fixed cost per instruction)"},
	{Name: "accel.exec_us_per_instr.load_d", Unit: "us", Better: lo, Moves: "host_ops_per_s on serve_*"},
	{Name: "accel.exec_us_per_instr.calc_i", Unit: "us", Better: lo, Moves: "host_ops_per_s, host_op_ms_p50 on infer_dense, infer_batch8"},
	{Name: "accel.exec_us_per_instr.calc_f", Unit: "us", Better: lo, Moves: "host_ops_per_s, host_op_ms_p50 on infer_dense, infer_batch8"},
	{Name: "accel.exec_us_per_instr.save", Unit: "us", Better: lo, Moves: "host_ops_per_s on serve_*"},
	{Name: "accel.host_share_pct.load_w", Unit: "%", Better: lo, Moves: "none; where the functional path's host time goes"},
	{Name: "accel.host_share_pct.load_d", Unit: "%", Better: lo, Moves: "none"},
	{Name: "accel.host_share_pct.calc_i", Unit: "%", Better: lo, Moves: "none"},
	{Name: "accel.host_share_pct.calc_f", Unit: "%", Better: lo, Moves: "none"},
	{Name: "accel.host_share_pct.save", Unit: "%", Better: lo, Moves: "none"},
	{Name: "accel.gmacs_per_s", Unit: "GMAC/s", Better: hi, Moves: "host_ops_per_s on infer_dense, infer_batch8 (about 1:1)"},
	{Name: "accel.top_layer_share_pct", Unit: "%", Better: lo, Moves: "none; head of the per-CNN-layer table"},
	{Name: "accel.new_arena_ms", Unit: "ms", Better: lo, Moves: "host_ops_per_s on deploy_cold, infer_batch8"},
	{Name: "accel.snapshot_restore_us", Unit: "us", Better: lo, Moves: "host_ops_per_s on serve_faults (CPU-like backups, salvage)"},
	{Name: "accel.timing_ns_per_instr", Unit: "ns", Better: lo, Moves: "host_ops_per_s on preempt_mix, dslam_mission"},
	{Name: "accel.sim_cycles.calc", Unit: "cycles", Better: lo, Exact: true, Moves: "sim_cycles_per_op on infer_*"},
	{Name: "accel.sim_cycles.xfer", Unit: "cycles", Better: lo, Exact: true, Moves: "sim_cycles_per_op on infer_*"},
	{Name: "accel.sim_cycles.hidden", Unit: "cycles", Better: hi, Exact: true, Moves: "sim_cycles_per_op on infer_*"},
	{Name: "accel.model_vs_host_ratio", Unit: "x", Better: lo, Moves: "none; modelled over host GMAC/s, the gap ROADMAP wants an address for"},

	{Name: "golden.run_ms", Unit: "ms", Better: lo, Moves: "nothing end to end: reference runs are outside setup_s and the timed section"},

	{Name: "iau.solo_overhead_pct", Unit: "%", Better: lo, Moves: "host_op_ms_p50 on infer_dense"},
	{Name: "iau.timing_ns_per_instr", Unit: "ns", Better: lo, Moves: "host_ops_per_s on preempt_mix, dslam_mission, serve_*"},
	{Name: "iau.sim_mcycles_per_host_s", Unit: "Mcycles/s", Better: hi, Moves: "host_ops_per_s on preempt_mix, dslam_mission"},
	{Name: "iau.preemptions.vi", Unit: "count", Better: lo, Exact: true, Moves: "sim_goodput_per_s on preempt_mix"},
	{Name: "iau.preemptions.layerwise", Unit: "count", Better: lo, Exact: true, Moves: "none; baseline policy"},
	{Name: "iau.preemptions.cpulike", Unit: "count", Better: lo, Exact: true, Moves: "none; baseline policy"},
	{Name: "iau.resp_cycles_p50.layerwise", Unit: "cycles", Better: lo, Exact: true, Moves: "none; what sim_resp_cycles_p50 would be without virtual instructions"},
	{Name: "iau.resp_cycles_p99.layerwise", Unit: "cycles", Better: lo, Exact: true, Moves: "none; baseline policy"},
	{Name: "iau.resp_cycles_p50.cpulike", Unit: "cycles", Better: lo, Exact: true, Moves: "none; baseline policy"},
	{Name: "iau.resp_cycles_p99.cpulike", Unit: "cycles", Better: lo, Exact: true, Moves: "none; baseline policy"},
	{Name: "iau.resp_over_bound_max_pct", Unit: "%", Better: lo, Exact: true, Moves: "failed ops everywhere (must stay <= 100)"},
	{Name: "iau.backup_kb_per_preempt.vi", Unit: "KB", Better: lo, Exact: true, Moves: "sim_preempt_cost_cycles on preempt_mix"},
	{Name: "iau.restore_cycles_per_preempt.vi", Unit: "cycles", Better: lo, Exact: true, Moves: "sim_preempt_cost_cycles on preempt_mix"},
	{Name: "iau.cost_cycles_per_preempt.cpulike", Unit: "cycles", Better: lo, Exact: true, Moves: "none; baseline policy"},
	{Name: "iau.fetch_overhead_pct", Unit: "%", Better: lo, Exact: true, Moves: "sim_goodput_per_s on preempt_mix (the paper's degradation)"},

	{Name: "sched.host_ms_per_sim_s.vi", Unit: "ms/s", Better: lo, Moves: "host_ops_per_s on preempt_mix"},
	{Name: "sched.host_ms_per_sim_s.predictive", Unit: "ms/s", Better: lo, Moves: "host_ops_per_s on preempt_mix if predictive becomes the default"},
	{Name: "sched.preemptions.static", Unit: "count", Better: lo, Exact: true, Moves: "none; three-task set"},
	{Name: "sched.preemptions.rm", Unit: "count", Better: lo, Exact: true, Moves: "none; three-task set"},
	{Name: "sched.preemptions.predictive", Unit: "count", Better: lo, Exact: true, Moves: "should fall with PREMA-style hysteresis while sched.sla_pct.predictive holds"},
	{Name: "sched.decisions.predictive", Unit: "count", Better: lo, Exact: true, Moves: "sched.host_ms_per_sim_s.predictive"},
	{Name: "sched.sla_pct.static", Unit: "%", Better: hi, Exact: true, Moves: "sim_deadline_met_pct on preempt_mix"},
	{Name: "sched.sla_pct.rm", Unit: "%", Better: hi, Exact: true, Moves: "sim_deadline_met_pct on preempt_mix"},
	{Name: "sched.sla_pct.predictive", Unit: "%", Better: hi, Exact: true, Moves: "sim_deadline_met_pct on preempt_mix"},
	{Name: "sched.jain_pct.predictive", Unit: "%", Better: hi, Exact: true, Moves: "none; fairness of the three-task set"},

	{Name: "core.deploy_ms", Unit: "ms", Better: lo, Moves: "setup_s on infer_*, dslam_mission"},
	{Name: "core.infer_over_iau_pct", Unit: "%", Better: lo, Moves: "host_op_ms_p50 on infer_dense"},

	{Name: "cluster.host_us_per_req.functional", Unit: "us", Better: lo, Moves: "host_ops_per_s on serve_*"},
	{Name: "cluster.host_us_per_req.timing", Unit: "us", Better: lo, Moves: "host_ops_per_s on serve_* only marginally (dispatcher + IAU alone)"},
	{Name: "cluster.new_workload_ms_per_task", Unit: "ms", Better: lo, Moves: "setup_s on serve_*"},
	{Name: "cluster.migrations", Unit: "count", Better: lo, Exact: true, Moves: "sim_latency_cycles_p99 on serve_clean"},
	{Name: "cluster.watchdog_kills", Unit: "count", Better: lo, Exact: true, Moves: "sim_latency_cycles_p99, sim_deadline_met_pct on serve_faults; 0 on serve_clean"},
	{Name: "cluster.salvage_resumes", Unit: "count", Better: hi, Exact: true, Moves: "sim_latency_cycles_p99 on serve_faults; 0 on serve_clean"},
	{Name: "cluster.quarantines", Unit: "count", Better: lo, Exact: true, Moves: "sim_latency_cycles_p99 on serve_faults"},
	{Name: "cluster.readmits", Unit: "count", Better: hi, Exact: true, Moves: "sim_goodput_per_s on serve_faults"},
	{Name: "cluster.shed_pct", Unit: "%", Better: lo, Exact: true, Moves: "sim_deadline_met_pct on serve_*"},
	{Name: "cluster.shed_overload", Unit: "count", Better: lo, Exact: true, Moves: "sim_deadline_met_pct on serve_*"},
	{Name: "cluster.shed_retries", Unit: "count", Better: lo, Exact: true, Moves: "sim_deadline_met_pct on serve_faults"},
	{Name: "cluster.useful_attempt_pct", Unit: "%", Better: hi, Exact: true, Moves: "sim_latency_cycles_p99 on serve_faults (completions over placements)"},
	{Name: "cluster.engine_busy_pct", Unit: "%", Better: hi, Exact: true, Moves: "sim_goodput_per_s on serve_*"},
	{Name: "cluster.busy_imbalance_pct", Unit: "%", Better: lo, Exact: true, Moves: "sim_latency_cycles_p99 on serve_clean"},
	{Name: "cluster.p99_cycles.load30", Unit: "cycles", Better: lo, Exact: true, Moves: "cluster.max_load_pct"},
	{Name: "cluster.p99_cycles.load50", Unit: "cycles", Better: lo, Exact: true, Moves: "cluster.max_load_pct"},
	{Name: "cluster.p99_cycles.load70", Unit: "cycles", Better: lo, Exact: true, Moves: "cluster.max_load_pct"},
	{Name: "cluster.p99_cycles.load90", Unit: "cycles", Better: lo, Exact: true, Moves: "cluster.max_load_pct"},
	{Name: "cluster.max_load_pct", Unit: "%", Better: hi, Exact: true, Moves: "none; highest load in 10..100 % with nothing shed and p99 <= 16x mean solo cycles"},
	{Name: "cluster.mode_divergence_tasks", Unit: "count", Better: lo, Exact: true, Moves: "none; outcomes that differ between the timing-only and functional run"},
	{Name: "cluster.run_aborts", Unit: "count", Better: lo, Exact: true, Moves: "none; timing-only streams cluster.Run returned an error on, redrawn from the next seed (0 once the steal rollback is fixed)"},

	{Name: "slam.frames_per_host_s", Unit: "1/s", Better: hi, Moves: "host_ops_per_s on dslam_mission"},
	{Name: "slam.fe_mean_lat_cycles", Unit: "cycles", Better: lo, Exact: true, Moves: "sim_latency_cycles_p50 on dslam_mission"},
	{Name: "slam.fe_max_lat_cycles", Unit: "cycles", Better: lo, Exact: true, Moves: "sim_latency_cycles_p99 on dslam_mission"},
	{Name: "slam.pr_done", Unit: "count", Better: hi, Exact: true, Moves: "sim_goodput_per_s on dslam_mission"},
	{Name: "slam.preempts", Unit: "count", Better: lo, Exact: true, Moves: "sim_goodput_per_s on dslam_mission"},
	{Name: "slam.degradation_pct", Unit: "%", Better: lo, Exact: true, Moves: "sim_goodput_per_s on dslam_mission"},
	{Name: "slam.utilization_pct", Unit: "%", Better: hi, Exact: true, Moves: "sim_cycles_per_op on dslam_mission"},
	{Name: "slam.merges", Unit: "count", Better: hi, Exact: true, Moves: "none; map merges accepted during the mission"},

	{Name: "trace.attach_overhead_pct", Unit: "%", Better: lo, Moves: "host_ops_per_s on preempt_mix only when a tracer is attached"},
	{Name: "trace.events_per_sim_s", Unit: "1/s", Better: lo, Exact: true, Moves: "trace.attach_overhead_pct"},

	{Name: "harness.span_overhead_pct", Unit: "%", Better: lo, Moves: "none; qualifies the traced numbers"},
	{Name: "harness.heap_peak_mb", Unit: "MB", Better: lo, Moves: "none"},
	{Name: "harness.gc_cycles", Unit: "count", Better: lo, Moves: "none"},
	{Name: "harness.calib_ns", Unit: "ns", Better: lo, Moves: "none; fixed int8 dot product, so a slow box is recognisable"},
	{Name: "harness.timer_ns", Unit: "ns", Better: lo, Moves: "none; cost of one timed call"},
}

// value is one reported number with its unit and sample count.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// endToEndValues computes every end-to-end metric from a workload's result.
// The definitions are the same on every workload; README.md says what the
// observations are on each.
func endToEndValues(res *result) map[string]value {
	tm := &res.timing
	s := &res.sim
	ops := float64(tm.totalOps())
	var instrs, virtual, bound uint64
	for _, p := range s.progs {
		st := compiler.Analyze(p)
		instrs += uint64(st.Instrs)
		virtual += st.VirtualBytes
		if st.InterruptPoints > 0 && st.ResponseBound > bound { // a program nothing can preempt has no response to bound
			bound = st.ResponseBound
		}
	}
	v := map[string]value{
		"setup_s":                 {Value: median(res.setupS), n: len(res.setupS)},
		"host_ops_per_s":          {Value: ops / tm.totalWall(), n: len(tm.walls)},
		"host_op_ms_p50":          {Value: median(tm.perOpMs()), n: len(tm.walls)},
		"host_alloc_mb_per_op":    {Value: float64(tm.allocBytes) / (1 << 20) / ops, n: len(tm.walls)},
		"sim_cycles_per_op":       {Value: mean(s.cycles), n: len(s.cycles)},
		"sim_resp_cycles_p50":     {Value: quantile(s.resp, 0.50), n: len(s.resp)},
		"sim_resp_cycles_p99":     {Value: quantile(s.resp, 0.99), n: len(s.resp)},
		"sim_preempt_cost_cycles": {Value: mean(s.cost), n: len(s.cost)},
		"sim_deadline_met_pct":    {Value: pct(float64(s.met), float64(s.offered)), n: s.offered},
		"sim_goodput_per_s":       {Value: float64(s.done) / (float64(s.span) / (float64(s.freqMHz) * 1e6)), n: s.done},
		"sim_latency_cycles_p50":  {Value: quantile(s.latency, 0.50), n: len(s.latency)},
		"sim_latency_cycles_p99":  {Value: quantile(s.latency, 0.99), n: len(s.latency)},
		"prog_kinstrs":            {Value: float64(instrs) / 1e3, n: len(s.progs)},
		"resp_bound_cycles":       {Value: float64(bound), n: len(s.progs)},
		"virtual_kb":              {Value: float64(virtual) / 1024, n: len(s.progs)},
	}
	for _, m := range endToEnd {
		x := v[m.Name]
		x.Unit = m.Unit
		v[m.Name] = x
	}
	return v
}

// perLayerValues fills in every declared per-layer metric: what the traced
// run measured, 0 for the layers this workload does not exercise.
func perLayerValues(res *result) map[string]value {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.setLayer("harness.heap_peak_mb", float64(ms.HeapSys)/(1<<20))
	res.setLayer("harness.gc_cycles", float64(ms.NumGC))
	res.setLayer("harness.calib_ns", calibrate())
	res.setLayer("harness.timer_ns", timerCost())
	v := map[string]value{}
	for _, m := range perLayer {
		v[m.Name] = value{Value: res.layer[m.Name], Unit: m.Unit}
	}
	return v
}

// manifest renders BENCHMARK.json from the declarations above, so the file
// at the repo root and the harness cannot drift apart (harness_test.go
// compares them).
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, x := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{x.Name, x.Unit, x.Better, x.Bound})
	}
	for _, x := range perLayer {
		m.PerLayer = append(m.PerLayer, pl{x.Name, x.Unit, x.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// calibrate times a fixed int8 dot product (1 Mi multiply-accumulates),
// best of five, so that a slow or busy box is recognisable in the output.
func calibrate() float64 {
	a, b := make([]int8, 1<<20), make([]int8, 1<<20)
	for i := range a {
		a[i], b[i] = int8(i*7), int8(i*13)
	}
	var best time.Duration
	for k := 0; k < 5; k++ {
		t := time.Now()
		var acc int32
		for i := range a {
			acc += int32(a[i]) * int32(b[i])
		}
		d := time.Since(t)
		calibSink = acc
		if k == 0 || d < best {
			best = d
		}
	}
	return float64(best)
}

var calibSink int32 // keeps the calibration loop from being optimised away

// timerCost is the mean cost of one timed call: two clock reads.
func timerCost() float64 {
	const n = 10000
	t := time.Now()
	for i := 0; i < n; i++ {
		calibSink += int32(time.Since(time.Now()))
	}
	return float64(time.Since(t)) / n
}
