package main

import (
	"bytes"
	"fmt"
	"time"

	"inca/internal/accel"
	"inca/internal/cluster"
	"inca/internal/iau"
)

const (
	serveEngines        = 4
	serveDeadlineFactor = 4    // deadline of priority-0/1 requests, in solo runtimes
	serveFaultRate      = 0.01 // per-attempt hangs, per-instruction stalls, per-preemption backup corruption
	serveP99Limit       = 16   // latency limit of the load sweep, in mean solo runtimes
	serveMaxRedraws     = 2    // aborted streams a run may replace before it counts as broken
)

func runServeClean(e *env) (*result, error)  { return runServe(e, 0.70, false) }
func runServeFaults(e *env) (*result, error) { return runServe(e, 0.40, true) }

// serving is the state set-up builds: the functional request stream with a
// pristine copy of every arena, and the arrival gap that offers the load.
type serving struct {
	w         *cluster.Workload
	pristine  [][]byte
	faultSeed uint64
	meanSolo  float64
	redraws   []string // why set-up drew the functional stream again
}

// runServe is open-loop serving: Poisson arrivals in simulated time (so the
// generator is never late), three small CNNs, heavy-tailed priorities,
// deadlines on the top two. Host metrics are timed on a functional stream of
// sz.serveFunctional requests whose every arena is checked against its golden
// image; simulated metrics are pooled from a timing-only replay of
// sz.serveStreams independent streams of sz.serveStreamLen requests, because
// the cycle model needs no arenas and a tail under faults needs that many
// requests to hold still. An op is one request.
func runServe(e *env, load float64, faults bool) (*result, error) {
	cfg := accel.Big()
	cfg.Workers = 1
	res := &result{sim: simObs{freqMHz: cfg.FreqMHz}}
	sz := e.sz

	config := func(seed uint64, w *cluster.Workload) cluster.Config {
		cc := cluster.Config{Engines: serveEngines, Accel: cfg, Policy: iau.PolicyVI, Seed: seed}
		if faults {
			cc.HangRate = cluster.HangRatePerAttempt(w.Progs, serveFaultRate)
			cc.StallRate = serveFaultRate
			cc.BackupRate = serveFaultRate
		}
		return cc
	}
	// gap is the mean inter-arrival time that offers the given share of the
	// engines' capacity.
	gap := func(meanSolo, load float64) uint64 { return uint64(meanSolo / (load * serveEngines)) }

	// run replays a stream and checks the ledgers every run must keep.
	run := func(name string, k int, cc cluster.Config, tasks []cluster.Task) (*cluster.Result, time.Duration, error) {
		var out *cluster.Result
		wall, err := e.call("cluster", name, k, func() (err error) {
			out, err = cluster.Run(cc, tasks)
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		st := &out.Stats
		met := 0
		for i := range out.Outcomes {
			if o := &out.Outcomes[i]; o.Completed && tasks[i].Deadline > 0 && o.DeadlineMet {
				met++
			}
		}
		if st.Offered != st.Completed+st.Shed || st.Offered != len(tasks) {
			res.fail(1, "%s: ledger: offered %d != completed %d + shed %d", name, st.Offered, st.Completed, st.Shed)
		}
		if met != st.DeadlineMet || st.DeadlineMet > st.DeadlineTasks {
			res.fail(1, "%s: deadline ledger: %d outcomes met, stats say %d of %d", name, met, st.DeadlineMet, st.DeadlineTasks)
		}
		return out, wall, nil
	}
	functional := func(s *serving, k int) (*cluster.Result, []cluster.Task, time.Duration, error) {
		tasks := append([]cluster.Task(nil), s.w.Tasks...)
		for i := range tasks {
			copy(tasks[i].Arena, s.pristine[i]) // the stream's own arenas, restored in place
		}
		out, wall, err := run("cluster.run.functional", k, config(s.faultSeed, s.w), tasks)
		return out, tasks, wall, err
	}
	// sameTimingOnly replays the functional stream's requests without arenas:
	// the other rung of the cluster ladder.
	sameTimingOnly := func(s *serving) (*cluster.Result, time.Duration, error) {
		tasks := append([]cluster.Task(nil), s.w.Tasks...)
		for i := range tasks {
			tasks[i].Arena = nil
		}
		return run("cluster.run.timing_same", 0, config(s.faultSeed, s.w), tasks)
	}

	// stream draws the timing-only stream k of sz.serveStreamLen requests at
	// the given load and replays it. cluster.Run aborts on about one fault
	// stream in 5000 ("iau: slot 3 busy; cannot inject": a preempt-steal whose
	// target fills while its clock is brought forward cannot be rolled back
	// once the source slot has refilled; README.md, finding 6). The benchmark
	// has to offer inputs on which no operation fails and may not fix the
	// repo, so such a stream is drawn again from the next seed and counted in
	// cluster.run_aborts; more than serveMaxRedraws in a run is an error.
	// Set-up does the same for the functional stream.
	aborts := 0
	stream := func(name string, k int, wseed, fseed uint64, meanSolo, load float64) (*cluster.Result, error) {
		for redraw := uint64(0); ; redraw += 1 << 32 {
			w, err := cluster.NewWorkload(cfg, cluster.WorkloadConfig{
				Tasks: sz.serveStreamLen, Seed: e.sub(wseed + redraw), MeanGapCycles: gap(meanSolo, load),
				DeadlineFactor: serveDeadlineFactor,
			})
			if err != nil {
				return nil, err
			}
			out, _, err := run(name, k, config(e.sub(fseed+redraw), w), w.Tasks)
			if err == nil {
				return out, nil
			}
			if aborts++; aborts > serveMaxRedraws {
				return nil, fmt.Errorf("%s %d: %w (after %d redrawn streams)", name, k, err, serveMaxRedraws)
			}
			res.notes = append(res.notes, fmt.Sprintf("%s %d redrawn: %v", name, k, err))
		}
	}

	s, err := setup(e, res, func() (*serving, error) {
		s := &serving{}
		// The model mix's mean solo runtime fixes the arrival gap; the
		// programs' timing does not depend on the weights' seed.
		mix, err := cluster.NewWorkload(cfg, cluster.WorkloadConfig{Tasks: 1, Seed: e.sub(0)})
		if err != nil {
			return nil, err
		}
		for _, p := range mix.Progs {
			s.meanSolo += float64(cluster.SoloCycles(cfg, p)) / float64(len(mix.Progs))
		}
		for redraw := uint64(0); ; redraw += 1 << 32 {
			s.faultSeed = e.sub(1 + redraw)
			if _, err := e.call("cluster", "cluster.new_workload", 0, func() (err error) {
				s.w, err = cluster.NewWorkload(cfg, cluster.WorkloadConfig{
					Tasks: sz.serveFunctional, Seed: e.sub(redraw), MeanGapCycles: gap(s.meanSolo, load),
					Functional: true, DeadlineFactor: serveDeadlineFactor,
				})
				return err
			}); err != nil {
				return nil, err
			}
			s.pristine = s.pristine[:0]
			for i := range s.w.Tasks {
				s.pristine = append(s.pristine, append([]byte(nil), s.w.Tasks[i].Arena...))
			}
			// The warm-up, discarded, in both of the modes the stream is
			// replayed in later: a stream either of them aborts on is not used.
			err := e.unrecorded(func() error {
				if _, _, _, err := functional(s, 0); err != nil {
					return err
				}
				_, _, err := sameTimingOnly(s)
				return err
			})
			if err == nil {
				return s, nil
			}
			if len(s.redraws) == serveMaxRedraws {
				return nil, fmt.Errorf("functional stream: %w (after %d redrawn streams)", err, serveMaxRedraws)
			}
			s.redraws = append(s.redraws, fmt.Sprintf("functional stream redrawn: %v", err))
		}
	})
	if err != nil {
		return nil, err
	}
	aborts += len(s.redraws)
	res.notes = append(res.notes, s.redraws...)
	res.sim.progs = s.w.Progs

	var funcOut *cluster.Result
	var funcWall time.Duration
	err = e.timed(res, 1, func(i int, first bool) (int, time.Duration, error) {
		out, tasks, wall, err := functional(s, i)
		if err != nil {
			return 0, 0, err
		}
		res.attempted += len(tasks)
		for j := range tasks {
			if out.Outcomes[j].Completed && !bytes.Equal(tasks[j].Arena, s.w.Golden[tasks[j].ID]) {
				res.fail(1, "%s: arena differs from its golden image", tasks[j].Name)
			}
		}
		funcOut, funcWall = out, wall
		return len(tasks), wall, nil
	})
	if err != nil {
		return nil, err
	}

	// Simulated metrics: the pooled timing-only replay.
	var pool cluster.Stats
	var attempts int
	busy := make([]uint64, serveEngines)
	var now uint64
	for k := 0; k < sz.serveStreams; k++ {
		out, err := stream("cluster.run.timing", k, uint64(10+k), uint64(1000+k), s.meanSolo, load)
		if err != nil {
			return nil, err
		}
		st := &out.Stats
		res.attempted += st.Offered
		var streamBusy uint64
		for i, pe := range st.PerEngine {
			busy[i] += pe.BusyCycles
			streamBusy += pe.BusyCycles
			now += pe.NowCycles
		}
		sim := &res.sim
		for i := range out.Outcomes {
			if o := &out.Outcomes[i]; o.Completed {
				sim.latency = append(sim.latency, o.Latency)
			}
			attempts += out.Outcomes[i].Attempts
		}
		sim.cycles = append(sim.cycles, streamBusy/uint64(st.Completed))
		sim.offered += st.DeadlineTasks
		sim.met += st.DeadlineMet
		sim.done += st.Completed
		sim.span += st.MakespanCycles
		pool.Offered += st.Offered
		pool.Completed += st.Completed
		pool.Shed += st.Shed
		pool.ShedOverload += st.ShedOverload
		pool.ShedRetries += st.ShedRetries
		pool.Migrations += st.Migrations
		pool.SalvageResumes += st.SalvageResumes
		pool.WatchdogKills += st.WatchdogKills
		pool.Quarantines += st.Quarantines
		pool.Readmits += st.Readmits
	}
	if err := e.probe(res, cfg, res.sim.progs); err != nil {
		return nil, err
	}
	if e.rec == nil {
		return res, nil
	}

	// Traced run: the cluster's counters, the ladder (the same requests
	// timing-only), and the load sweep.
	res.setLayer("cluster.migrations", float64(pool.Migrations))
	res.setLayer("cluster.watchdog_kills", float64(pool.WatchdogKills))
	res.setLayer("cluster.salvage_resumes", float64(pool.SalvageResumes))
	res.setLayer("cluster.quarantines", float64(pool.Quarantines))
	res.setLayer("cluster.readmits", float64(pool.Readmits))
	res.setLayer("cluster.shed_pct", pct(float64(pool.Shed), float64(pool.Offered)))
	res.setLayer("cluster.shed_overload", float64(pool.ShedOverload))
	res.setLayer("cluster.shed_retries", float64(pool.ShedRetries))
	res.setLayer("cluster.useful_attempt_pct", pct(float64(pool.Completed), float64(attempts)))
	var sum, lo, hi uint64
	for i, b := range busy {
		sum += b
		if i == 0 || b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	res.setLayer("cluster.engine_busy_pct", pct(float64(sum), float64(now)))
	res.setLayer("cluster.busy_imbalance_pct", pct(float64(hi-lo), float64(sum)/serveEngines))

	// The accel ladder on the first request of each served program: what one
	// instruction costs on maps this small.
	var subjects []*subject
	for _, p := range s.w.Progs {
		for i := range s.w.Tasks {
			if t := &s.w.Tasks[i]; t.Prog == p {
				subjects = append(subjects, &subject{
					prog: p, slot: t.Priority, pristine: s.pristine[i],
					scratch: make([]byte, len(s.pristine[i])), gold: s.w.Golden[t.ID],
				})
				break
			}
		}
	}
	if _, err := e.ladder(res, cfg, subjects); err != nil {
		return nil, err
	}

	var timingOut *cluster.Result
	timingWall, err := bestOf(3, func() (wall time.Duration, err error) {
		timingOut, wall, err = sameTimingOnly(s)
		return wall, err
	})
	if err != nil {
		return nil, err
	}
	diverged := 0
	for i := range funcOut.Outcomes {
		if funcOut.Outcomes[i] != timingOut.Outcomes[i] {
			diverged++
		}
	}
	n := float64(len(s.w.Tasks))
	res.setLayer("cluster.mode_divergence_tasks", float64(diverged))
	res.setLayer("cluster.host_us_per_req.functional", 1e6*funcWall.Seconds()/n)
	res.setLayer("cluster.host_us_per_req.timing", 1e6*timingWall.Seconds()/n)
	res.setLayer("cluster.new_workload_ms_per_task", e.rec.meanMs("cluster", "cluster.new_workload")/n)
	res.split = map[string]float64{
		"accel (functional over timing)": float64(funcWall - timingWall), "cluster+iau+accel (timing-only)": float64(timingWall),
	}

	maxLoad := 0
	for l := 10; l <= 100; l += 10 {
		out, err := stream("cluster.run.sweep", l, 2000, 2001, s.meanSolo, float64(l)/100)
		if err != nil {
			return nil, err
		}
		var lat []uint64
		for i := range out.Outcomes {
			if out.Outcomes[i].Completed {
				lat = append(lat, out.Outcomes[i].Latency)
			}
		}
		p99 := quantile(lat, 0.99)
		if l == 30 || l == 50 || l == 70 || l == 90 {
			res.setLayer(fmt.Sprintf("cluster.p99_cycles.load%d", l), p99)
		}
		if out.Stats.Shed == 0 && p99 <= serveP99Limit*s.meanSolo {
			maxLoad = l
		}
	}
	res.setLayer("cluster.max_load_pct", float64(maxLoad))
	res.setLayer("cluster.run_aborts", float64(aborts))
	return res, nil
}
