// inca-sim runs a multi-task workload on the simulated interruptible
// accelerator and reports scheduling results: completions, deadline misses,
// response latencies, preemptions, and the interrupt-support overhead.
//
// Tasks are described as flag values, one per -task:
//
//	-task name=FE,slot=0,net=superpoint,h=360,w=480,c=1,period=50ms,deadline=50ms
//	-task name=PR,slot=1,net=gem,h=480,w=640,continuous=true
//
// A compiled instruction.bin can be supplied instead of a network:
//
//	-task name=PR,slot=1,prog=pr.bin,continuous=true
//
// Two keys expose the compiler's interrupt-point placement optimizer:
// vibudget=<duration> compiles the task's own stream with the minimal
// Vir_SAVE site set proving that worst-case preemption response (instead of
// a group at every site), and maxresponse=<duration> declares how long this
// task tolerates waiting on lower-priority work — sched.Run rejects the set
// up front if any co-scheduled program's proven bound exceeds it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/fault"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/sched"
	"inca/internal/trace"
)

type taskFlags []string

func (t *taskFlags) String() string     { return strings.Join(*t, "; ") }
func (t *taskFlags) Set(s string) error { *t = append(*t, s); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, errw io.Writer) int {
	fs := flag.NewFlagSet("inca-sim", flag.ContinueOnError)
	fs.SetOutput(errw)
	var tasks taskFlags
	var (
		accelStr = fs.String("accel", "big", "accelerator config: big or small")
		policy   = fs.String("policy", "vi", "interrupt policy: none|vi|layer|cpu")
		duration = fs.Duration("duration", 5*time.Second, "simulated horizon")
		verbose  = fs.Bool("v", false, "print every preemption record")
		timeline = fs.Bool("timeline", false, "print every lifecycle mark of the run (start/preempt/resume/complete/...)")
		gantt    = fs.Bool("gantt", false, "render the timeline as a per-slot Gantt chart")
		traceOut = fs.String("trace", "", "write a Perfetto (Chrome trace_event) JSON trace to this file")
		traceCap = fs.Int("trace-cap", 0, "trace ring capacity in events (0 = default)")

		predictive = fs.Bool("predictive", false, "use the PREMA-style predictive scheduler (DESIGN.md §15) on top of the interrupt mechanism")
		predCold   = fs.Bool("predictive-cold", false, "start the predictive estimator cold (static fallback until the first completions train it)")

		faults      = fs.Bool("faults", false, "arm the deterministic fault injector")
		faultSeed   = fs.Uint64("fault-seed", 7, "fault injector seed")
		corruptRate = fs.Float64("corrupt-rate", 0.02, "snapshot/backup bit-flip rate (with -faults)")
		stallRate   = fs.Float64("stall-rate", 0.02, "per-instruction stall rate (with -faults)")
		hangRate    = fs.Float64("hang-rate", 1e-5, "per-instruction hang rate (with -faults)")
		irqLostRate = fs.Float64("irq-lost-rate", 0.01, "lost preemption IRQ rate (with -faults)")
		watchdog    = fs.Uint64("watchdog", 0, "watchdog bound in cycles (0 = auto-derive, with -faults)")
	)
	fs.Var(&tasks, "task", "task spec (repeatable); see doc comment")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	fail := func(format string, a ...interface{}) int {
		fmt.Fprintf(errw, "inca-sim: "+format+"\n", a...)
		return 1
	}

	if len(tasks) == 0 {
		// Default: the paper's DSLAM mix.
		tasks = taskFlags{
			"name=FE,slot=0,net=superpoint,c=1,h=360,w=480,period=50ms,deadline=50ms,drop=true",
			"name=PR,slot=1,net=gem,c=3,h=480,w=640,continuous=true",
		}
		fmt.Fprintln(stdout, "no -task flags; running the default DSLAM mix (FE@20fps + continuous PR)")
	}

	cfg := accel.Big()
	if *accelStr == "small" {
		cfg = accel.Small()
	} else if *accelStr != "big" {
		return fail("unknown -accel %q", *accelStr)
	}
	pol, err := parsePolicy(*policy)
	if err != nil {
		return fail("%v", err)
	}

	var specs []sched.TaskSpec
	for _, ts := range tasks {
		spec, err := parseTask(ts, cfg, pol, *predictive)
		if err != nil {
			return fail("parsing -task %q: %v", ts, err)
		}
		specs = append(specs, spec)
	}

	// -gantt and -timeline read the tracer's marks: one tracer serves them
	// and -trace alike.
	var opts []sched.Option
	var tracer *trace.Tracer
	if *traceOut != "" || *timeline || *gantt {
		tracer = trace.New(*traceCap)
		opts = append(opts, sched.WithTracer(tracer))
	}
	var pred *sched.PolicyPredictive
	if *predictive {
		var po []sched.PredictOption
		if tracer != nil {
			po = append(po, sched.WithDecisionTrace(tracer))
		}
		pred = sched.NewPredictive(cfg, po...)
		opts = append(opts, sched.WithPredictive(pred))
		if *predCold {
			opts = append(opts, sched.WithPredictiveCold())
		}
	} else if *predCold {
		return fail("-predictive-cold requires -predictive")
	}
	if *faults {
		inj := fault.New(*faultSeed)
		inj.SetRate(fault.SiteBackup, *corruptRate)
		inj.SetRate(fault.SiteStall, *stallRate)
		inj.SetRate(fault.SiteHang, *hangRate)
		inj.SetRate(fault.SiteIRQLost, *irqLostRate)
		opts = append(opts, sched.WithFaults(inj), sched.WithWatchdog(*watchdog))
	}
	res, err := sched.Run(cfg, pol, specs, *duration, opts...)
	if err != nil {
		return fail("run: %v", err)
	}
	if *traceOut != "" {
		if err := trace.WriteFiles(tracer, *traceOut, "inca-sim "+pol.String()); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "wrote Perfetto trace to %s (%d events, %d dropped) and metrics to %s\n",
			*traceOut, tracer.Total(), tracer.Dropped(), trace.MetricsPath(*traceOut))
	}

	fmt.Fprintf(stdout, "policy=%v accel=%s horizon=%v utilization=%.1f%% degradation=%.3f%%\n",
		pol, cfg.Name, *duration, 100*res.Utilization(), 100*res.Degradation())
	if pred != nil {
		decisions, estimates := pred.Counters()
		fmt.Fprintf(stdout, "predictive: %d cost-model decisions, %d estimator updates, mean SLA %.1f%%, Jain fairness %.3f\n",
			decisions, estimates, 100*res.MeanSLAAttainment(), res.JainFairness())
	}
	calc, xfer, hidden := res.CycleStats()
	if tot := calc + xfer; tot > 0 {
		fmt.Fprintf(stdout, "accelerator time: %.0f%% compute, %.0f%% exposed transfers (%.1f ms of DMA hidden under compute)\n\n",
			100*float64(calc)/float64(tot), 100*float64(xfer)/float64(tot), cfg.CyclesToMicros(hidden)/1000)
	} else {
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%-10s %5s %5s %5s %6s %12s %12s %9s\n",
		"task", "done", "drop", "miss", "preempt", "mean(ms)", "max(ms)", "busy(ms)")
	for _, spec := range specs {
		st := res.Tasks[spec.Name]
		fmt.Fprintf(stdout, "%-10s %5d %5d %5d %6d %12.2f %12.2f %9.1f\n",
			st.Name, st.Completed, st.Dropped, st.DeadlineMisses, st.Preempted,
			cfg.CyclesToMicros(uint64(st.MeanLatency()))/1000,
			cfg.CyclesToMicros(st.MaxLatency())/1000,
			cfg.CyclesToMicros(st.ExecCycles)/1000)
	}
	if res.Faults != nil {
		fmt.Fprintf(stdout, "\n%s\n", res.Faults)
		fmt.Fprintf(stdout, "%-10s %7s %9s %9s %5s\n", "task", "retried", "corrupted", "recovered", "shed")
		for _, spec := range specs {
			st := res.Tasks[spec.Name]
			fmt.Fprintf(stdout, "%-10s %7d %9d %9d %5d\n", st.Name, st.Retried, st.Corrupted, st.Recovered, st.Shed)
		}
	}
	fmt.Fprintf(stdout, "\n%d preemptions", len(res.Preemptions))
	if len(res.Preemptions) > 0 {
		var lat, cost uint64
		for _, p := range res.Preemptions {
			lat += p.Latency()
			cost += p.Cost()
		}
		n := uint64(len(res.Preemptions))
		fmt.Fprintf(stdout, ": mean response latency %.1f us, mean extra cost %.1f us",
			cfg.CyclesToMicros(lat/n), cfg.CyclesToMicros(cost/n))
	}
	fmt.Fprintln(stdout)
	if *verbose {
		for i, p := range res.Preemptions {
			fmt.Fprintf(stdout, "  #%d t=%.3fms slot%d->slot%d layer=%s latency=%.1fus cost=%.1fus backup=%dB\n",
				i, cfg.CyclesToMicros(p.RequestCycle)/1000, p.Preemptor, p.Victim, p.VictimLayer,
				cfg.CyclesToMicros(p.Latency()), cfg.CyclesToMicros(p.Cost()), p.BackupBytes)
		}
	}
	if tracer == nil {
		return 0
	}
	events := tracer.Events()
	if *gantt {
		fmt.Fprintln(stdout, "\ntimeline (each column ≈ "+
			fmt.Sprintf("%.1f ms", float64(duration.Milliseconds())/72)+"):")
		fmt.Fprint(stdout, sched.Gantt(cfg, events, cfg.SecondsToCycles(duration.Seconds()), 72))
	}
	if *timeline {
		fmt.Fprintln(stdout, "\ntimeline:")
		for _, e := range events {
			if !e.Kind.IsSpan() {
				fmt.Fprintf(stdout, "  t=%10.3fms %-8s slot%d %s\n",
					cfg.CyclesToMicros(e.Cycle)/1000, e.Kind, e.Slot, e.Label)
			}
		}
	}
	return 0
}

func parsePolicy(s string) (iau.Policy, error) {
	switch s {
	case "none":
		return iau.PolicyNone, nil
	case "vi", "virtual", "virtual-instruction":
		return iau.PolicyVI, nil
	case "layer", "layer-by-layer":
		return iau.PolicyLayerByLayer, nil
	case "cpu", "cpu-like":
		return iau.PolicyCPULike, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (none|vi|layer|cpu)", s)
	}
}

func parseTask(s string, cfg accel.Config, pol iau.Policy, predictive bool) (sched.TaskSpec, error) {
	spec := sched.TaskSpec{}
	netName, progPath := "", ""
	var viBudget time.Duration
	c, h, w := 3, 120, 160
	for _, kv := range strings.Split(s, ",") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return spec, fmt.Errorf("bad key=value %q", kv)
		}
		k, v := parts[0], parts[1]
		var err error
		switch k {
		case "name":
			spec.Name = v
		case "slot":
			spec.Slot, err = strconv.Atoi(v)
		case "net":
			netName = v
		case "prog":
			progPath = v
		case "c":
			c, err = strconv.Atoi(v)
		case "h":
			h, err = strconv.Atoi(v)
		case "w":
			w, err = strconv.Atoi(v)
		case "period":
			spec.Period, err = time.ParseDuration(v)
		case "deadline":
			spec.Deadline, err = time.ParseDuration(v)
		case "offset":
			spec.Offset, err = time.ParseDuration(v)
		case "count":
			spec.Count, err = strconv.Atoi(v)
		case "continuous":
			spec.Continuous, err = strconv.ParseBool(v)
		case "drop":
			spec.DropIfBusy, err = strconv.ParseBool(v)
		case "retries":
			spec.MaxRetries, err = strconv.Atoi(v)
		case "backoff":
			spec.RetryBackoff, err = time.ParseDuration(v)
		case "maxresponse":
			spec.MaxResponse, err = time.ParseDuration(v)
		case "vibudget":
			viBudget, err = time.ParseDuration(v)
		default:
			return spec, fmt.Errorf("unknown key %q", k)
		}
		if err != nil {
			return spec, fmt.Errorf("key %q: %v", k, err)
		}
	}
	if spec.Name == "" {
		return spec, fmt.Errorf("missing name=")
	}
	switch {
	case progPath != "":
		if viBudget > 0 {
			return spec, fmt.Errorf("vibudget= needs net= (a pre-compiled prog= already fixed its placement)")
		}
		f, err := os.Open(progPath)
		if err != nil {
			return spec, err
		}
		defer f.Close()
		p, err := isa.Decode(f)
		if err != nil {
			return spec, fmt.Errorf("decoding %s: %v", progPath, err)
		}
		if p.ParaIn != cfg.ParaIn || p.ParaOut != cfg.ParaOut || p.ParaHeight != cfg.ParaHeight {
			return spec, fmt.Errorf("%s compiled for Para=(%d,%d,%d), accelerator is (%d,%d,%d)",
				progPath, p.ParaIn, p.ParaOut, p.ParaHeight, cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight)
		}
		spec.Prog = p
	case netName != "":
		g, err := model.ByName(netName, c, h, w)
		if err != nil {
			return spec, err
		}
		q, err := quant.Synthesize(g, 1)
		if err != nil {
			return spec, err
		}
		opt := cfg.CompilerOptions()
		// Under the static rule only lower-priority slots are ever
		// preempted; the predictive scheduler can pick any victim, so
		// every task gets virtual interrupt points. A vibudget= key hands
		// placement to the optimizer instead of the every-site rule.
		opt.VI = compiler.VIIf(pol == iau.PolicyVI && (spec.Slot > 0 || predictive))
		if viBudget > 0 {
			if pol != iau.PolicyVI {
				return spec, fmt.Errorf("vibudget= needs -policy vi")
			}
			opt.VI = compiler.VIBudget{MaxResponseCycles: cfg.SecondsToCycles(viBudget.Seconds())}
		}
		spec.Prog, err = compiler.Compile(q, opt)
		if err != nil {
			return spec, err
		}
	default:
		return spec, fmt.Errorf("need net= or prog=")
	}
	return spec, nil
}
