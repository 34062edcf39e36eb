package bench

// The cluster serving benchmark behind `inca-bench -suite=cluster` and the
// cluster quarter of `make bench-gate`: it replays a fixed seeded request
// stream through the fault-tolerant EngineCluster at N=1/2/4 engines, with
// and without injected faults, and emits the snapshot checked in as
// BENCH_cluster.json. Every number comes from the deterministic cycle model
// (same seed, same placement, same fault draws), so Gate compares the file
// byte for byte — any drift is a real behavioural change in the dispatcher,
// the migration protocol, or the IAU underneath it.

import (
	"fmt"

	"inca/internal/accel"
	"inca/internal/cluster"
	"inca/internal/iau"
)

// Fixed operating point for the snapshot. The fault scenarios use the
// ISSUE-spec serving chaos rates: 5% of attempts hang (watchdog kill), 5%
// of preemption backups corrupt, 5% of instructions stall.
const (
	clusterBenchTasks = 48
	clusterBenchSeed  = 42
	clusterHangProb   = 0.05
	clusterFaultRate  = 0.05
)

// ClusterScenario is one (engines, faults) cell of the serving sweep.
type ClusterScenario struct {
	Name    string `json:"name"`
	Engines int    `json:"engines"`
	Faults  bool   `json:"faults"`

	// Task ledger. Offered == Completed + Shed on every drained run.
	Offered   int `json:"offered"`
	Completed int `json:"completed"`
	Shed      int `json:"shed"`

	// Robustness activity under the injected fault mix.
	Migrations     int `json:"migrations"`
	SalvageResumes int `json:"salvage_resumes"`
	WatchdogKills  int `json:"watchdog_kills"`
	Quarantines    int `json:"quarantines"`

	// Service quality from the cycle model.
	GoodputPerSec  float64 `json:"goodput_per_sec"`
	P50Cycles      uint64  `json:"p50_cycles"`
	P99Cycles      uint64  `json:"p99_cycles"`
	SLAPct         float64 `json:"sla_pct"`
	MakespanCycles uint64  `json:"makespan_cycles"`
}

// ClusterSnapshot is the checked-in serving baseline.
type ClusterSnapshot struct {
	Config    string            `json:"config"`
	Tasks     int               `json:"tasks"`
	Seed      uint64            `json:"seed"`
	Scenarios []ClusterScenario `json:"scenarios"`
}

// clusterBenchConfig is the accelerator the sweep runs on: the big config
// shrunk to the same 8x8x4 array the serving CLI and the cluster tests use,
// so snapshot numbers line up with `inca-serve` output.
func clusterBenchConfig() accel.Config {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 8, 8, 4
	return cfg
}

// ClusterBench replays the fixed request stream at N=1/2/4 engines with
// faults off and on, and returns the snapshot plus a rendered table.
func ClusterBench() (*ClusterSnapshot, *Table, error) {
	cfg := clusterBenchConfig()
	snap := &ClusterSnapshot{Config: cfg.Name, Tasks: clusterBenchTasks, Seed: clusterBenchSeed}
	t := &Table{
		ID:    "CLUSTER",
		Title: fmt.Sprintf("fault-tolerant serving (%s, %d requests, seed %d)", cfg.Name, clusterBenchTasks, clusterBenchSeed),
		Columns: []string{"scenario", "completed", "shed", "migrations", "kills",
			"goodput/s", "p50 cyc", "p99 cyc", "SLA %"},
	}

	w, err := cluster.NewWorkload(cfg, cluster.WorkloadConfig{
		Tasks: clusterBenchTasks, Seed: clusterBenchSeed, DeadlineFactor: 16,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("cluster workload: %v", err)
	}
	cps := float64(cfg.FreqMHz) * 1e6

	for _, engines := range []int{1, 2, 4} {
		for _, faults := range []bool{false, true} {
			// Rebuild the task slice per run: cluster.Run records outcomes
			// through it and timing-only tasks carry no arenas to reset.
			tasks := make([]cluster.Task, len(w.Tasks))
			copy(tasks, w.Tasks)

			cc := cluster.Config{
				Engines: engines, Accel: cfg, Policy: iau.PolicyVI,
				Seed: clusterBenchSeed,
			}
			if faults {
				cc.HangRate = cluster.HangRatePerAttempt(w.Progs, clusterHangProb)
				cc.BackupRate = clusterFaultRate
				cc.StallRate = clusterFaultRate
			}
			res, err := cluster.Run(cc, tasks)
			if err != nil {
				return nil, nil, fmt.Errorf("cluster n=%d faults=%v: %v", engines, faults, err)
			}
			st := &res.Stats
			if st.Completed+st.Shed != st.Offered {
				return nil, nil, fmt.Errorf("cluster n=%d faults=%v: ledger broken (offered=%d completed=%d shed=%d)",
					engines, faults, st.Offered, st.Completed, st.Shed)
			}

			sc := ClusterScenario{
				Engines: engines, Faults: faults,
				Offered: st.Offered, Completed: st.Completed, Shed: st.Shed,
				Migrations: st.Migrations, SalvageResumes: st.SalvageResumes,
				WatchdogKills: st.WatchdogKills, Quarantines: st.Quarantines,
				GoodputPerSec:  st.Goodput(cps),
				P50Cycles:      st.Latency.Quantile(0.50),
				P99Cycles:      st.Latency.Quantile(0.99),
				SLAPct:         100 * st.SLAAttainment(),
				MakespanCycles: st.MakespanCycles,
			}
			sc.Name = fmt.Sprintf("n%d", engines)
			if faults {
				sc.Name += "+faults"
			}
			snap.Scenarios = append(snap.Scenarios, sc)
			t.AddRow(sc.Name,
				fmt.Sprintf("%d/%d", sc.Completed, sc.Offered), fmt.Sprintf("%d", sc.Shed),
				fmt.Sprintf("%d", sc.Migrations), fmt.Sprintf("%d", sc.WatchdogKills),
				fmt.Sprintf("%.1f", sc.GoodputPerSec),
				fmt.Sprintf("%d", sc.P50Cycles), fmt.Sprintf("%d", sc.P99Cycles),
				fmt.Sprintf("%.1f", sc.SLAPct))
		}
	}
	t.AddNote("+faults injects %.0f%% per-attempt hangs, %.0f%% backup corruption, %.0f%% stalls",
		100*clusterHangProb, 100*clusterFaultRate, 100*clusterFaultRate)
	t.AddNote("all columns come from the deterministic cycle model at %d MHz", cfg.FreqMHz)
	return snap, t, nil
}
