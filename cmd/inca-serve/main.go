// inca-serve is the overload-graceful serving front-end: it generates a
// seeded open-loop stream of inference requests with heavy-tailed
// priorities and drives it through a fault-tolerant EngineCluster
// (internal/cluster) — least-loaded placement, cross-engine migration of
// preempted and watchdog-killed tasks, engine quarantine with
// probe-and-readmit, and admission control that sheds the lowest-priority
// work first. It reports throughput, latency percentiles, and SLA
// attainment, and can verify every completed inference bit-exactly against
// the golden interpreter.
//
// Usage:
//
//	inca-serve -engines 4 -tasks 64
//	inca-serve -engines 4 -hang 0.05 -corrupt 0.05 -functional
//	inca-serve -engines 2 -json stats.json -trace serve.trace.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"inca/internal/accel"
	"inca/internal/cluster"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, errw io.Writer) int {
	fs := flag.NewFlagSet("inca-serve", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		engines    = fs.Int("engines", 4, "cluster size")
		tasks      = fs.Int("tasks", 64, "requests in the arrival stream")
		seed       = fs.Uint64("seed", 1, "master seed (workload and fault streams)")
		hang       = fs.Float64("hang", 0, "per-attempt probability an inference hangs (watchdog kill)")
		stall      = fs.Float64("stall", 0, "per-instruction transient stall probability")
		corrupt    = fs.Float64("corrupt", 0, "per-preemption DDR backup corruption probability")
		meanGap    = fs.Uint64("mean-gap", 0, "mean inter-arrival gap in cycles (0 = moderate overload)")
		dlFactor   = fs.Float64("deadline-factor", 16, "deadline = factor x solo runtime for priority 0/1 tasks (0 = none)")
		quarantine = fs.Int("quarantine-k", cluster.DefaultQuarantineAfter, "consecutive kills before an engine is quarantined")
		maxMig     = fs.Int("max-migrations", cluster.DefaultMaxMigrations, "placements per task before it is shed")
		maxQueue   = fs.Int("max-queue", cluster.DefaultMaxQueue, "dispatch backlog bound (admission control)")
		functional = fs.Bool("functional", false, "run with real arenas and verify completions against the golden interpreter")
		viBudgetUs = fs.Float64("vi-budget-us", 0, "compile served models with the minimal interrupt-point set proving this worst-case preemption response in microseconds (0 = a backup group at every site)")
		dlCheck    = fs.Bool("deadline-check", false, "reject tasks at admission whose deadline cannot survive solo runtime plus the worst proven response bound in the mix")
		jsonOut    = fs.String("json", "", "write the deterministic stats report to this file")
		traceOut   = fs.String("trace", "", "write the cluster-level Perfetto trace (migrate/quarantine/readmit marks) here")
		outcomes   = fs.Bool("outcomes", false, "print one line per task outcome")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fail := func(format string, a ...interface{}) int {
		fmt.Fprintf(errw, "inca-serve: "+format+"\n", a...)
		return 1
	}

	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 8, 8, 4

	var vi compiler.VIPolicy
	if *viBudgetUs > 0 {
		vi = compiler.VIBudget{MaxResponseCycles: cfg.SecondsToCycles(*viBudgetUs * 1e-6)}
	}
	w, err := cluster.NewWorkload(cfg, cluster.WorkloadConfig{
		Tasks: *tasks, Seed: *seed, MeanGapCycles: *meanGap,
		Functional: *functional, DeadlineFactor: *dlFactor, VI: vi,
	})
	if err != nil {
		return fail("workload: %v", err)
	}

	var tr *trace.Tracer
	if *traceOut != "" {
		tr = trace.New(1 << 16)
	}
	res, err := cluster.Run(cluster.Config{
		Engines: *engines, Accel: cfg, Policy: iau.PolicyVI,
		Seed:            *seed,
		HangRate:        cluster.HangRatePerAttempt(w.Progs, *hang),
		StallRate:       *stall,
		BackupRate:      *corrupt,
		QuarantineAfter: *quarantine,
		MaxMigrations:   *maxMig,
		MaxQueue:        *maxQueue,
		DeadlineCheck:   *dlCheck,
		Tracer:          tr,
	}, w.Tasks)
	if err != nil {
		return fail("cluster: %v", err)
	}

	fmt.Fprint(stdout, res.Stats.String())
	cps := float64(cfg.FreqMHz) * 1e6
	fmt.Fprintf(stdout, "goodput: %.1f inferences/s at %d MHz\n", res.Stats.Goodput(cps), cfg.FreqMHz)

	if *outcomes {
		for i := range res.Outcomes {
			o := &res.Outcomes[i]
			switch {
			case o.Completed:
				fmt.Fprintf(stdout, "  task %-3d %-16s done @%d on engine%d (latency %d, %d migrations, %d salvages)\n",
					o.TaskID, o.Name, o.DoneCycle, o.Engine, o.Latency, o.Migrations, o.Salvaged)
			default:
				fmt.Fprintf(stdout, "  task %-3d %-16s shed (%s) @%d after %d attempts\n",
					o.TaskID, o.Name, o.Shed, o.DoneCycle, o.Attempts)
			}
		}
	}

	if *functional {
		bad := 0
		for i := range res.Outcomes {
			o := &res.Outcomes[i]
			if o.Completed && !bytes.Equal(w.Tasks[o.TaskID].Arena, w.Golden[o.TaskID]) {
				fmt.Fprintf(errw, "inca-serve: task %d (%s) output differs from golden\n", o.TaskID, o.Name)
				bad++
			}
		}
		if bad > 0 {
			return fail("%d of %d completed inferences diverged from the golden interpreter", bad, res.Stats.Completed)
		}
		fmt.Fprintf(stdout, "functional: %d completed inferences bit-exact vs golden\n", res.Stats.Completed)
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return fail("create %s: %v", *jsonOut, err)
		}
		err = res.Stats.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail("write %s: %v", *jsonOut, err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonOut)
	}
	if *traceOut != "" {
		if err := trace.WriteFiles(tr, *traceOut, "inca-serve"); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d events, %d dropped) and %s\n",
			*traceOut, len(tr.Events()), tr.Dropped(), trace.MetricsPath(*traceOut))
	}
	return 0
}
