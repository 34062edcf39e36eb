// inca-bench regenerates the paper's tables and figures on the simulated
// stack (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	inca-bench -e all -scale full
//	inca-bench -e E1,E3 -scale quick
//	inca-bench -e E2 -cpuprofile cpu.pprof -benchjson results.json
//	inca-bench -suite=datapath -snapshot BENCH_datapath.json  (refresh a baseline)
//	inca-bench -suite=datapath -gate BENCH_datapath.json      (fail on regression)
//	inca-bench -suite=cluster|sched|vi -gate BENCH_<suite>.json
//
// A bare -gate PATH without -suite keeps its historical meaning: the
// datapath suite.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"

	"inca/internal/bench"
	"inca/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, errw io.Writer) int {
	fs := flag.NewFlagSet("inca-bench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		exps       = fs.String("e", "all", "experiments to run: all or comma list of E1..E14")
		scaleStr   = fs.String("scale", "quick", "quick (reduced inputs, seconds) or full (paper-scale 480x640)")
		outPath    = fs.String("o", "", "also write results to this file")
		formatMD   = fs.Bool("md", false, "render tables as markdown")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile (taken after the run) to this file")
		benchJSON  = fs.String("benchjson", "", "write all result tables as a JSON array to this file")
		traceOut   = fs.String("trace", "", "run the two-task preemption workload with tracing and write Perfetto JSON here (metrics beside it)")
		traceCap   = fs.Int("trace-cap", 0, "trace ring capacity in events (0 = default)")
		suiteName  = fs.String("suite", "", "benchmark suite: datapath, cluster, sched, or vi (use with -snapshot and/or -gate)")
		snapPath   = fs.String("snapshot", "", "run the selected -suite and write its schema-versioned snapshot here (e.g. BENCH_datapath.json)")
		gatePath   = fs.String("gate", "", "run the selected -suite (datapath when -suite is absent) and fail on regression vs this baseline snapshot")
		reps       = fs.Int("reps", 3, "wall-clock best-of repetitions for the datapath suite")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fail := func(format string, a ...interface{}) int {
		fmt.Fprintf(errw, "inca-bench: "+format+"\n", a...)
		return 1
	}

	if *suiteName == "" && *gatePath != "" {
		// Historical spelling: a bare -gate PATH means the datapath suite.
		*suiteName = "datapath"
	}
	if *suiteName != "" {
		var err error
		switch *suiteName {
		case "datapath":
			err = runSuite(datapathSuite(*reps), *snapPath, *gatePath, *formatMD, stdout, errw)
		case "cluster":
			err = runSuite(clusterSuite, *snapPath, *gatePath, *formatMD, stdout, errw)
		case "sched":
			err = runSuite(schedSuite, *snapPath, *gatePath, *formatMD, stdout, errw)
		case "vi":
			err = runSuite(viSuite, *snapPath, *gatePath, *formatMD, stdout, errw)
		default:
			return fail("unknown -suite %q (datapath|cluster|sched|vi)", *suiteName)
		}
		if err != nil {
			return fail("%v", err)
		}
		return 0
	}
	if *snapPath != "" {
		return fail("-snapshot needs -suite (datapath|cluster|sched|vi)")
	}

	scale := bench.Quick
	switch *scaleStr {
	case "quick":
	case "full":
		scale = bench.Full
	default:
		return fail("unknown -scale %q (quick|full)", *scaleStr)
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fail("create %s: %v", *outPath, err)
		}
		defer f.Close()
		out = io.MultiWriter(stdout, f)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail("create %s: %v", *cpuProfile, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("start cpu profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	writeJSON := func(tables []*bench.Table) error {
		if *benchJSON == "" {
			return nil
		}
		f, err := os.Create(*benchJSON)
		if err != nil {
			return fmt.Errorf("create %s: %v", *benchJSON, err)
		}
		defer f.Close()
		if err := bench.WriteJSON(f, tables); err != nil {
			return fmt.Errorf("write %s: %v", *benchJSON, err)
		}
		return f.Close()
	}

	if *traceOut != "" {
		tr, t, err := bench.TraceRun(scale, *traceCap)
		if err != nil {
			return fail("trace run: %v", err)
		}
		printTable(out, t, *formatMD)
		if err := trace.WriteFiles(tr, *traceOut, "inca-bench trace"); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(out, "wrote %s (%d events, %d dropped) and %s\n",
			*traceOut, len(tr.Events()), tr.Dropped(), trace.MetricsPath(*traceOut))
		if err := writeJSON([]*bench.Table{t}); err != nil {
			return fail("%v", err)
		}
		return 0
	}

	// Tables finished before a failing experiment still reach -o/-benchjson.
	tables, err := runExperiments(*exps, scale)
	for _, t := range tables {
		printTable(out, t, *formatMD)
	}
	if jerr := writeJSON(tables); jerr != nil {
		return fail("%v", jerr)
	}
	if *memProfile != "" {
		f, merr := os.Create(*memProfile)
		if merr != nil {
			return fail("create %s: %v", *memProfile, merr)
		}
		defer f.Close()
		runtime.GC()
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			return fail("write heap profile: %v", merr)
		}
		if merr := f.Close(); merr != nil {
			return fail("write heap profile: %v", merr)
		}
	}
	if err != nil {
		return fail("%v", err)
	}
	return 0
}

// runExperiments executes the requested experiments and returns every table
// produced, including the ones finished before an error (so partial results
// still reach -o/-benchjson).
func runExperiments(exps string, scale bench.Scale) ([]*bench.Table, error) {
	runners := map[string]func(bench.Scale) (*bench.Table, error){
		"E2":  bench.E2NetworkSweep,
		"E3":  bench.E3BackupVsConv,
		"E4":  bench.E4TheoryCheck,
		"E5":  bench.E5Resources,
		"E7":  bench.E7Headline,
		"E8":  bench.E8SaveGranularity,
		"E9":  bench.E9MultiCore,
		"E10": bench.E10Sensitivity,
		"E11": bench.E11Schedulability,
		"E12": bench.E12Energy,
		"E13": bench.E13Migration,
		"E14": bench.E14FaultRecovery,
	}

	var tables []*bench.Table
	if exps == "all" {
		all, err := bench.All(scale)
		tables = append(tables, all...)
		if err != nil {
			return tables, err
		}
		for _, id := range []string{"E8", "E9", "E10", "E11", "E12", "E13", "E14"} {
			t, err := runners[id](scale)
			if err != nil {
				return tables, fmt.Errorf("%s: %v", id, err)
			}
			tables = append(tables, t)
		}
		return tables, nil
	}

	for _, id := range strings.Split(exps, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		switch id {
		case "E1":
			r, err := bench.E1InterruptPositions(scale)
			if err != nil {
				return tables, fmt.Errorf("E1: %v", err)
			}
			tables = append(tables, r.Table)
		case "E6":
			r, err := bench.E6DSLAMScheduling(scale)
			if err != nil {
				return tables, fmt.Errorf("E6: %v", err)
			}
			tables = append(tables, r.Table)
		default:
			f, ok := runners[id]
			if !ok {
				return tables, fmt.Errorf("unknown experiment %q", id)
			}
			t, err := f(scale)
			if err != nil {
				return tables, fmt.Errorf("%s: %v", id, err)
			}
			tables = append(tables, t)
		}
	}
	return tables, nil
}

// suite adapts one internal/bench suite — its snapshot type S and the
// Write/Read/Gate triplet over it — to the shared snapshot-and-gate driver.
type suite[S any] struct {
	// name prefixes the gate's messages; regressed is what a failed gate says
	// got worse.
	name, regressed string
	measure         func() (*S, *bench.Table, error)
	// header exposes the snapshot's schema version and its git_rev field.
	header func(*S) (schema int, rev *string)
	write  func(io.Writer, *S) error
	read   func(path string) (*S, error)
	gate   func(baseline, current *S, tolPct float64) (fails, notes []string)
}

func datapathSuite(reps int) suite[bench.DatapathSnapshot] {
	return suite[bench.DatapathSnapshot]{
		name: "bench-gate", regressed: "modeled throughput",
		measure: func() (*bench.DatapathSnapshot, *bench.Table, error) { return bench.Datapath(reps) },
		header:  func(s *bench.DatapathSnapshot) (int, *string) { return s.Schema, &s.GitRev },
		write:   bench.WriteDatapath, read: bench.ReadDatapath, gate: bench.Gate,
	}
}

// The cluster sweep is fully deterministic (cycle model).
var clusterSuite = suite[bench.ClusterSnapshot]{
	name: "cluster-gate", regressed: "serving quality",
	measure: bench.ClusterBench,
	header:  func(s *bench.ClusterSnapshot) (int, *string) { return s.Schema, &s.GitRev },
	write:   bench.WriteCluster, read: bench.ReadCluster, gate: bench.GateCluster,
}

// On top of the regression checks, the sched gate enforces that the
// predictive scenario never attains less SLA than the static-priority
// baseline it falls back to.
var schedSuite = suite[bench.SchedSnapshot]{
	name: "sched-gate", regressed: "scheduling quality",
	measure: bench.SchedBench,
	header:  func(s *bench.SchedSnapshot) (int, *string) { return s.Schema, &s.GitRev },
	write:   bench.WriteSched, read: bench.ReadSched, gate: bench.GateSched,
}

// The vi suite is the interrupt-point placement sweep — footprint and
// proven-vs-measured response of the VIEvery and VIBudget streams on the
// DSLAM model set. On top of the regression checks its gate enforces,
// baseline-free, that no measured response exceeds its proven bound and that
// the optimizer genuinely pruned.
var viSuite = suite[bench.VISnapshot]{
	name: "vi-gate", regressed: "interrupt-point placement",
	measure: bench.VIBench,
	header:  func(s *bench.VISnapshot) (int, *string) { return s.Schema, &s.GitRev },
	write:   bench.WriteVI, read: bench.ReadVI, gate: bench.GateVI,
}

// runSuite measures one suite, writes a fresh snapshot (-snapshot) and/or
// compares it against a checked-in baseline (-gate). INCA_BENCH_GATE=off
// skips the comparison, INCA_BENCH_GATE_TOL widens the allowed drop for
// noisy boxes.
func runSuite[S any](s suite[S], snapPath, gatePath string, md bool, stdout, errw io.Writer) error {
	if gatePath != "" && os.Getenv("INCA_BENCH_GATE") == "off" {
		fmt.Fprintf(stdout, "%s: skipped (INCA_BENCH_GATE=off)\n", s.name)
		return nil
	}
	snap, t, err := s.measure()
	if err != nil {
		return fmt.Errorf("%s: %v", s.name, err)
	}
	schema, rev := s.header(snap)
	*rev = gitRev()
	printTable(stdout, t, md)
	if snapPath != "" {
		f, err := os.Create(snapPath)
		if err != nil {
			return fmt.Errorf("create %s: %v", snapPath, err)
		}
		defer f.Close()
		if err := s.write(f, snap); err != nil {
			return fmt.Errorf("write %s: %v", snapPath, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("write %s: %v", snapPath, err)
		}
		fmt.Fprintf(stdout, "wrote %s (schema v%d, rev %s)\n", snapPath, schema, *rev)
	}
	if gatePath != "" {
		baseline, err := s.read(gatePath)
		if err != nil {
			return fmt.Errorf("%s baseline: %v", s.name, err)
		}
		_, baseRev := s.header(baseline)
		tol := bench.GateTolerancePct()
		fails, notes := s.gate(baseline, snap, tol)
		for _, n := range notes {
			fmt.Fprintf(stdout, "%s: note: %s\n", s.name, n)
		}
		for _, f := range fails {
			fmt.Fprintf(errw, "%s: %s\n", s.name, f)
		}
		if len(fails) > 0 {
			return fmt.Errorf("%s regressed vs %s (baseline rev %s, tolerance %.1f%%)",
				s.regressed, gatePath, *baseRev, tol)
		}
		fmt.Fprintf(stdout, "%s: ok vs %s (baseline rev %s, tolerance %.1f%%)\n",
			s.name, gatePath, *baseRev, tol)
	}
	return nil
}

// gitRev best-effort resolves the working tree's short revision for the
// snapshot header; "unknown" outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printTable(w io.Writer, t *bench.Table, md bool) {
	if md {
		fmt.Fprintln(w, t.Markdown())
		return
	}
	fmt.Fprintln(w, t)
}
