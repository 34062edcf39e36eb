package bench

import (
	"fmt"
	"time"

	"inca/internal/accel"
	"inca/internal/cluster"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
)

// e9Engines are the cluster sizes E9 sweeps.
var e9Engines = []int{1, 2, 4}

// E9MultiCore exercises the paper's stated future work (§6): multi-core
// multi-tasking, as one plain internal/cluster stream per engine count. The
// camera's FE frames arrive at 20 fps with deadline = period at priority 0,
// a PR request rides every tenth frame at priority 1 (the cadence E6
// observes), and SEG requests arrive open-loop at priority 2, one engine's
// worth faster than the whole cluster could serve them with nothing else to
// do. The SEG backlog therefore only grows, and background throughput — PR
// and SEG completions inside the horizon — measures capacity, not demand: it
// should scale with engines while FE keeps its deadline everywhere.
//
// SEG is offered over time rather than as one burst at cycle 0 because the
// dispatcher places work when an event wakes it, not when an engine runs
// dry: a burst would be served two requests per engine per camera frame.
func E9MultiCore(scale Scale) (*Table, error) {
	cfg := accel.Big()
	h, w := scale.inputSize()
	horizon := 3 * time.Second
	if scale == Full {
		horizon = 8 * time.Second
	}
	fe, err := compileNet(cfg, model.NewSuperPoint(h*3/4, w*3/4), compiler.VINone{}, 1)
	if err != nil {
		return nil, err
	}
	gem, err := model.NewGeM(3, h, w)
	if err != nil {
		return nil, err
	}
	pr, err := compileNet(cfg, gem, compiler.VIEvery{}, 2)
	if err != nil {
		return nil, err
	}
	seg, err := compileNet(cfg, model.NewVGG16(3, h*3/4, w*3/4), compiler.VIEvery{}, 3)
	if err != nil {
		return nil, err
	}

	const prEvery = 10 // frames per PR request
	period := cfg.SecondsToCycles(0.05)
	horizonCycles := cfg.SecondsToCycles(horizon.Seconds())
	frames := int(horizonCycles / period)
	segSolo := cluster.SoloCycles(cfg, seg)

	t := &Table{
		ID:    "E9",
		Title: fmt.Sprintf("extension — multi-core multi-tasking on internal/cluster (FE@20fps + PR every %d frames + SEG overload, %v)", prEvery, horizon),
		Columns: []string{"engines", "FE done", "FE miss", "PR done", "SEG done",
			"background/s", "vs 1 engine", "shed"},
	}
	var oneEngine float64
	for _, engines := range e9Engines {
		var tasks []cluster.Task
		add := func(name string, prio int, prog *isa.Program, arrival, deadline uint64) {
			tasks = append(tasks, cluster.Task{
				ID: len(tasks), Name: fmt.Sprintf("%s#%d", name, len(tasks)),
				Priority: prio, Prog: prog, Arrival: arrival, Deadline: deadline,
			})
		}
		for i := 0; i < frames; i++ {
			add("FE", 0, fe, uint64(i)*period, period)
			if i%prEvery == 0 {
				add("PR", 1, pr, uint64(i)*period, 0)
			}
		}
		segGap := segSolo / uint64(engines+1)
		for at := uint64(0); at < horizonCycles; at += segGap {
			add("SEG", 2, seg, at, 0)
		}

		// MaxQueue = the whole stream: E9 measures capacity, so admission
		// control must never shed the backlog it is draining.
		res, err := cluster.Run(cluster.Config{
			Engines: engines, Accel: cfg, Policy: iau.PolicyVI, MaxQueue: len(tasks),
		}, tasks)
		if err != nil {
			return nil, fmt.Errorf("E9 engines=%d: %w", engines, err)
		}
		var done [3]int // completions inside the horizon, by priority
		for i := range res.Outcomes {
			if o := &res.Outcomes[i]; o.Completed && o.DoneCycle <= horizonCycles {
				done[tasks[i].Priority]++
			}
		}
		st := &res.Stats
		bg := float64(done[1]+done[2]) / horizon.Seconds()
		if oneEngine == 0 {
			oneEngine = bg
		}
		t.AddRow(
			fmt.Sprintf("%d", engines),
			fmt.Sprintf("%d/%d", done[0], frames),
			fmt.Sprintf("%d", st.DeadlineTasks-st.DeadlineMet),
			fmt.Sprintf("%d", done[1]),
			fmt.Sprintf("%d", done[2]),
			fmt.Sprintf("%.2f", bg),
			fmt.Sprintf("%.2fx", bg/oneEngine),
			fmt.Sprintf("%d", st.Shed),
		)
	}
	t.AddNote("background = PR + SEG completions inside the horizon; SEG is offered at (engines+1)x one engine's solo rate, so the column is capacity, not demand")
	t.AddNote("scaling is super-linear because FE's fixed load is a smaller share of a larger cluster")
	t.AddNote("dispatcher: internal/cluster (least-loaded placement, strict priority per engine, VI preemption)")
	return t, nil
}
