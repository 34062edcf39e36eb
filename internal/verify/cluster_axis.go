package verify

// The cluster schedule axis runs the generated victim as a task on a real
// EngineCluster (internal/cluster) instead of a single IAU: probe waves
// force preemptions on whichever engine holds the victim, injected hangs
// force watchdog kills and cross-engine migrations (salvage resumes and
// full resubmissions), and corrupted backups must be caught by the CRC
// wherever the task lands. The verdict is unchanged — the victim's arena
// must be bit-identical to the golden interpreter's, no matter how many
// engines touched it on the way — and the stream replayed without an arena
// must end the same way, cycle for cycle.

import (
	"bytes"
	"fmt"
	"reflect"

	"inca/internal/accel"
	"inca/internal/cluster"
	"inca/internal/iau"
	"inca/internal/isa"
)

// clusterMaxMigrations bounds per-task placements in the axis. With the
// generator's 25% per-attempt hang probability, ten attempts make a
// legitimate retries-exhausted shed of the victim astronomically unlikely
// (~1e-6), so the harness treats any shed as a failure.
const clusterMaxMigrations = 10

// runClusterOnce executes a KindCluster case and checks the cluster-level
// invariants. The returned count is the number of cross-engine migrations
// the run performed (the axis' analogue of a preemption count).
func runClusterOnce(c Case, cfg accel.Config, victim, probe *isa.Program,
	initial, want []byte, soloTotal uint64) (int, error) {

	// run plays the stream with the victim on arena (nil: timing-only).
	run := func(arena []byte) (*cluster.Result, error) {
		tasks := []cluster.Task{{
			ID: 0, Name: "victim", Priority: c.Sched.VictimSlot,
			Prog: victim, Arena: arena,
		}}
		for i, pr := range c.Sched.Probes {
			tasks = append(tasks, cluster.Task{
				ID: i + 1, Name: fmt.Sprintf("probe%d", i), Priority: pr.Slot,
				Prog: probe, Arrival: uint64(pr.Frac * float64(soloTotal)),
			})
		}
		return cluster.Run(cluster.Config{
			Engines: max(c.Sched.Engines, 1), Accel: cfg, Policy: iau.PolicyVI,
			Seed:          c.Sched.FaultSeed,
			HangRate:      cluster.HangRatePerAttempt([]*isa.Program{victim, probe}, c.Sched.HangAttempt),
			StallRate:     c.Sched.StallRate,
			BackupRate:    c.Sched.BackupRate,
			MaxMigrations: clusterMaxMigrations,
		}, tasks)
	}
	arena := bytes.Clone(initial)
	res, err := run(arena)
	if err != nil {
		return 0, fmt.Errorf("cluster run failed: %v", err)
	}
	migrations := res.Stats.Migrations

	// 1. Zero tasks lost: every task completed or was shed with a reason,
	// and the stats ledger balances.
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if !o.Completed && o.Shed == "" {
			return migrations, fmt.Errorf("task %d (%s) lost: neither completed nor shed", o.TaskID, o.Name)
		}
	}
	if tasks := 1 + len(c.Sched.Probes); res.Stats.Completed+res.Stats.Shed != res.Stats.Offered || res.Stats.Offered != tasks {
		return migrations, fmt.Errorf("cluster ledger broken: offered=%d completed=%d shed=%d (tasks=%d)",
			res.Stats.Offered, res.Stats.Completed, res.Stats.Shed, tasks)
	}

	// 2. With MaxMigrations this high, nothing should actually shed.
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if !o.Completed {
			return migrations, fmt.Errorf("task %d (%s) shed (%s) after %d attempts, %d migrations",
				o.TaskID, o.Name, o.Shed, o.Attempts, o.Migrations)
		}
	}

	// 3. Bit-exact equivalence: the victim's arena must match the golden
	// interpreter byte for byte, regardless of which engines ran it.
	if !bytes.Equal(want, arena) {
		n, first := diffBytes(want, arena)
		vo := &res.Outcomes[0]
		return migrations, fmt.Errorf(
			"victim arena differs from golden at %d bytes (first at %d) after %d migrations, %d salvage resumes, %d kills",
			n, first, vo.Migrations, vo.Salvaged, res.Stats.WatchdogKills)
	}

	// 4. One cycle model (invariant 9): the same stream with no arena must
	// produce the same ledger and the same outcome for every task.
	tres, err := run(nil)
	if err != nil {
		return migrations, fmt.Errorf("timing-only cluster replay failed: %v", err)
	}
	if !reflect.DeepEqual(res.Stats, tres.Stats) || !reflect.DeepEqual(res.Outcomes, tres.Outcomes) {
		return migrations, fmt.Errorf("functional and timing-only cluster runs disagree:\n  %+v\n  %+v", res.Outcomes, tres.Outcomes)
	}
	return migrations, nil
}
