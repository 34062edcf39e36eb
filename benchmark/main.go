// Command benchmark is the repo's one measuring instrument: seven workloads
// driven through the public functions of the modules only, reporting what the
// modelled accelerator does (simulated, exact at a seed) next to what the
// simulator costs on the host (medians over repetitions), and, in a traced
// run, where each layer's host time goes. README.md has the tables.
//
//	bash benchmark/run.sh                       one set: every workload, end to end
//	bash benchmark/run.sh -sets 2               two sets, compared against the bounds
//	bash benchmark/run.sh -workload infer_dense -trace 1
//
// With -workload the last line of standard output is one JSON object, the
// form the benchmark driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// runSeconds is the length of the timed section the driver asks for
// (BENCHMARK.json run_seconds). Sized so that a run with its set-up stays
// under 20 s on a 2-core box; see README.md, "Sizing".
const runSeconds = 8

// workload is one named set of inputs. why is the reason it exists, in the
// one line BENCHMARK.json carries.
type workload struct {
	name string
	why  string
	run  func(e *env) (*result, error)
}

var workloads = []workload{
	{"infer_dense", "closed loop, B=1 inferences of three CNNs: accel functional kernels are over 90% of host time, sched/cluster/compiler idle", runInferDense},
	{"infer_batch8", "closed loop, batch-8 plan on the bandwidth-starved config: same kernels, weights amortised over planes, so a B=1 gain that costs B=8 shows", runInferBatch},
	{"preempt_mix", "the paper's FE-preempts-PR scenario, timing-only: iau/sched bookkeeping and the accel timing path do all host work, conv kernels none", runPreemptMix},
	{"deploy_cold", "synthesize, compile, verify, encode, decode, allocate for six CNNs under two interrupt-point policies: compiler/progcheck/isa/quant only, engine idle", runDeployCold},
	{"serve_clean", "open-loop Poisson serving on 4 engines at 70% load, no faults: dispatch, placement and migration with the recovery paths idle; small CNNs run functionally", runServeClean},
	{"serve_faults", "same generator at 40% load with 1% hangs, stalls and backup corruption: watchdog kill, migrate, salvage, quarantine carry the latency", runServeFaults},
	{"dslam_mission", "the paper's two-agent DSLAM system end to end through slam/ros/core/iau at 20 fps: its host time is most of the repo's test time", runDSLAM},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// report is the driver-facing result line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runOne runs one workload once and returns its report. Traced runs report
// the per-layer metrics, untraced runs the end-to-end ones.
func runOne(w *workload, e env, traced bool, log io.Writer) (*report, error) {
	e.name = w.name
	if traced {
		e.rec = newRecorder(1 << 18)
	}
	start := time.Now()
	res, err := w.run(&e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for _, m := range res.failMsgs {
		fmt.Fprintf(log, "%s: FAILED: %s\n", w.name, m)
	}
	rep := &report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed}
	decl := endToEnd
	if traced {
		decl = perLayer
		rep.Metrics = perLayerValues(res)
		if err := writeTrace(&e, w.name, res, log); err != nil {
			return nil, err
		}
	} else {
		rep.Metrics = endToEndValues(res)
	}
	fmt.Fprintf(log, "%s  seed %d  %d ops attempted, %d failed  (%.1f s)\n", w.name, e.seed, rep.Attempted, rep.Failed, time.Since(start).Seconds())
	for _, m := range decl {
		v := rep.Metrics[m.Name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", w.name, m.Name, v.Value)
		}
		n := ""
		if v.n > 0 {
			n = fmt.Sprintf("n=%d", v.n)
		}
		fmt.Fprintf(log, "  %-36s %16.6g %-10s %s\n", m.Name, v.Value, v.Unit, n)
	}
	for _, n := range res.notes {
		fmt.Fprintf(log, "  note: %s\n", n)
	}
	return rep, nil
}

// writeTrace writes the spans and the layer self-time table of a traced run
// and prints the table.
func writeTrace(e *env, name string, res *result, log io.Writer) error {
	if e.rec.dropped > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d spans dropped (recorder full)", e.rec.dropped))
	}
	if err := e.writeJSON(name+".spans.json", e.rec.spans); err != nil {
		return err
	}
	tables := map[string][]layerShare{"pass_self_time": e.rec.shares(), "ladder_attribution": sortedShares(res.split)}
	if err := e.writeJSON(name+".layers.json", tables); err != nil {
		return err
	}
	for _, t := range []string{"pass_self_time", "ladder_attribution"} {
		fmt.Fprintf(log, "%s  %s (%d spans recorded)\n", name, t, len(e.rec.spans))
		for _, s := range tables[t] {
			fmt.Fprintf(log, "  %-28s %10.1f ms %6.1f %%\n", s.Layer, s.Ms, s.SharePct)
		}
	}
	return nil
}

// runSets runs the whole suite n times and compares the sets: an exact
// metric that differs at all, or a host metric whose values differ by more
// than its bound, is an error.
func runSets(e env, n int, traced bool, log io.Writer) error {
	all := make([]map[string]*report, n)
	ok := true
	for s := 0; s < n; s++ {
		all[s] = map[string]*report{}
		for i := range workloads {
			w := &workloads[i]
			rep, err := runOne(w, e, traced, log)
			if err != nil {
				return err
			}
			ok = ok && rep.Correct
			all[s][w.name] = rep
		}
	}
	if n > 1 && !traced {
		fmt.Fprintf(log, "\nspread over %d sets (max-min over median) against each bound\n", n)
		for _, w := range workloads {
			for _, m := range endToEnd {
				var vals []float64
				for s := 0; s < n; s++ {
					vals = append(vals, all[s][w.name].Metrics[m.Name].Value)
				}
				sort.Float64s(vals)
				spread := (vals[n-1] - vals[0]) / math.Abs(median(vals))
				verdict := "ok"
				switch {
				case m.Exact && vals[0] != vals[n-1]:
					verdict, ok = "EXACT METRIC DIFFERS", false
				case !m.Exact && spread > m.Bound:
					verdict, ok = "OVER BOUND", false
				}
				fmt.Fprintf(log, "  %-14s %-26s %8.3f %%  bound %5.1f %%  %s\n", w.name, m.Name, 100*spread, 100*m.Bound, verdict)
			}
		}
	}
	if !ok {
		return fmt.Errorf("correctness or repeatability check failed")
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print the driver's JSON line last (default: all)")
		seed    = flag.Uint64("seed", 42, "drives quant seeds, input patterns, phase offsets, arrival streams, fault seeds")
		seconds = flag.Float64("seconds", runSeconds, "length of the timed section")
		traced  = flag.Int("trace", 0, "1: traced run, reporting the per-layer metrics and writing spans")
		sets    = flag.Int("sets", 1, "run the whole suite this many times and compare the sets")
		smoke   = flag.Bool("smoke", false, "tiny sizes, for the harness's own test")
		outDir  = flag.String("out", "benchmark/out", "directory for spans and tables of traced runs")
		print   = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *print {
		out, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Stdout.Write(out)
		return
	}
	e := env{seed: *seed, seconds: *seconds, sz: fullSizes(), outDir: *outDir}
	if *smoke {
		e.sz = smokeSizes()
	}
	if *name == "" {
		if err := runSets(e, *sets, *traced == 1, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rep, err := runOne(w, e, *traced == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}
