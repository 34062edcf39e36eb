// inca-bench regenerates the paper's tables and figures on the simulated
// stack (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	inca-bench -e all -scale full
//	inca-bench -e E1,E3 -scale quick
//	inca-bench -e E2 -cpuprofile cpu.pprof -benchjson results.json
//	inca-bench -suite=datapath -snapshot BENCH_datapath.json  (refresh a baseline)
//	inca-bench -suite=datapath -gate BENCH_datapath.json      (fail on any difference)
//	inca-bench -suite=cluster|sched|vi -gate BENCH_<suite>.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
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
	suiteNames := make([]string, len(bench.Suites))
	for i, s := range bench.Suites {
		suiteNames[i] = s.Name
	}
	suiteList := strings.Join(suiteNames, "|")

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
		suiteName  = fs.String("suite", "", "snapshot suite: "+suiteList+" (use with -snapshot and/or -gate)")
		snapPath   = fs.String("snapshot", "", "run the selected -suite and write its snapshot here (e.g. BENCH_datapath.json)")
		gatePath   = fs.String("gate", "", "run the selected -suite and fail unless its snapshot is byte-identical to this checked-in one")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fail := func(format string, a ...interface{}) int {
		fmt.Fprintf(errw, "inca-bench: "+format+"\n", a...)
		return 1
	}

	if *suiteName != "" {
		for _, s := range bench.Suites {
			if s.Name != *suiteName {
				continue
			}
			if err := runSuite(s, *snapPath, *gatePath, *formatMD, stdout); err != nil {
				return fail("%v", err)
			}
			return 0
		}
		return fail("unknown -suite %q (%s)", *suiteName, suiteList)
	}
	if *snapPath != "" || *gatePath != "" {
		return fail("-snapshot and -gate need -suite (%s)", suiteList)
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
		"E14": bench.E14FaultRecovery,
	}

	var tables []*bench.Table
	if exps == "all" {
		all, err := bench.All(scale)
		tables = append(tables, all...)
		if err != nil {
			return tables, err
		}
		for _, id := range []string{"E8", "E9", "E10", "E11", "E12", "E14"} {
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

// runSuite measures one suite — its baseline-free contract is checked on
// every measurement, so a violating snapshot is neither written nor gated —
// then writes the snapshot (-snapshot) and/or compares it byte for byte with a
// checked-in one (-gate).
func runSuite(s bench.Suite, snapPath, gatePath string, md bool, stdout io.Writer) error {
	snap, t, err := s.Run()
	if t != nil {
		printTable(stdout, t, md)
	}
	if err != nil {
		return err
	}
	if snapPath != "" {
		data, err := bench.Render(snap)
		if err != nil {
			return fmt.Errorf("render %s: %v", snapPath, err)
		}
		if err := os.WriteFile(snapPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", snapPath)
	}
	if gatePath != "" {
		if err := bench.Gate(snap, gatePath); err != nil {
			return fmt.Errorf("%s-gate: %v", s.Name, err)
		}
		fmt.Fprintf(stdout, "%s-gate: ok vs %s (byte-identical)\n", s.Name, gatePath)
	}
	return nil
}

func printTable(w io.Writer, t *bench.Table, md bool) {
	if md {
		fmt.Fprintln(w, t.Markdown())
		return
	}
	fmt.Fprintln(w, t)
}
