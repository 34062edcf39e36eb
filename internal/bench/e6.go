package bench

import (
	"fmt"
	"time"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/sched"
)

// E6Result carries the DSLAM scheduling outcomes per policy.
type E6Result struct {
	Table   *Table
	Results map[iau.Policy]*sched.Result
	Config  accel.Config
}

// E6DSLAMScheduling reproduces §5.3: the FE task (SuperPoint) fed by a
// 20 fps camera at top priority with a hard frame deadline, and the PR task
// (GeM/ResNet-101) running continuously at low priority on the same
// accelerator. Compared across the native accelerator (no interrupt),
// layer-by-layer, and the VI method: FE deadline misses, PR progress (the
// paper observes one PR every 7-10 camera frames), and the multi-tasking
// overhead (paper: within 0.3%).
func E6DSLAMScheduling(scale Scale) (*E6Result, error) {
	cfg := accel.Big()
	h, w := scale.inputSize()
	horizon := 4 * time.Second
	if scale == Full {
		horizon = 10 * time.Second
	}

	gem, err := model.NewGeM(3, h, w)
	if err != nil {
		return nil, err
	}
	// PR consumes the full camera frame (the paper states 480x640x3 for the
	// GeM backbone); FE runs SuperPoint on the standard downscaled
	// grayscale input (3/4 linear scale), which reproduces the paper's
	// observed cadence: FE holds its 50 ms deadline and PR completes every
	// 7-10 camera frames.
	fe, err := compileNet(cfg, model.NewSuperPoint(h*3/4, w*3/4), compiler.VINone{}, 9)
	if err != nil {
		return nil, err
	}
	prVI, err := compileNet(cfg, gem, compiler.VIEvery{}, 9)
	if err != nil {
		return nil, err
	}
	prPlain, err := compileNet(cfg, gem, compiler.VINone{}, 9)
	if err != nil {
		return nil, err
	}

	framePeriod := 50 * time.Millisecond
	specsFor := func(pol iau.Policy) []sched.TaskSpec {
		pr := prPlain
		if pol == iau.PolicyVI {
			pr = prVI
		}
		return []sched.TaskSpec{
			{Name: "FE", Slot: 0, Prog: fe, Period: framePeriod, Deadline: framePeriod, DropIfBusy: true},
			{Name: "PR", Slot: 1, Prog: pr, Continuous: true},
		}
	}

	res := &E6Result{
		Table: &Table{
			ID:    "E6",
			Title: fmt.Sprintf("DSLAM on one accelerator — FE @20fps (deadline 50ms) + continuous PR, %v horizon", horizon),
			Columns: []string{"policy", "FE done", "FE miss", "FE mean(ms)", "FE max(ms)",
				"PR done", "PR gap(frames)", "preempts", "overhead", "util"},
		},
		Results: make(map[iau.Policy]*sched.Result),
		Config:  cfg,
	}
	cyclesPerFrame := float64(cfg.SecondsToCycles(framePeriod.Seconds()))
	for _, pol := range []iau.Policy{iau.PolicyNone, iau.PolicyLayerByLayer, iau.PolicyVI} {
		r, err := sched.Run(cfg, pol, specsFor(pol), horizon)
		if err != nil {
			return nil, fmt.Errorf("E6 %v: %w", pol, err)
		}
		res.Results[pol] = r
		feSt := r.Tasks["FE"]
		prSt := r.Tasks["PR"]
		gaps := r.CompletionGaps("PR")
		var gapFrames float64
		if len(gaps) > 0 {
			var s float64
			for _, g := range gaps {
				s += float64(g)
			}
			gapFrames = s / float64(len(gaps)) / cyclesPerFrame
		}
		res.Table.AddRow(pol.String(),
			fmt.Sprintf("%d", feSt.Completed),
			fmt.Sprintf("%d", feSt.DeadlineMisses),
			fmt.Sprintf("%.1f", cfg.CyclesToMicros(uint64(feSt.MeanLatency()))/1000),
			fmt.Sprintf("%.1f", cfg.CyclesToMicros(feSt.MaxLatency())/1000),
			fmt.Sprintf("%d", prSt.Completed),
			fmt.Sprintf("%.1f", gapFrames),
			fmt.Sprintf("%d", prSt.Preempted),
			fmt.Sprintf("%.3f%%", 100*r.Degradation()),
			fmt.Sprintf("%.2f", r.Utilization()),
		)
	}
	res.Table.AddNote("paper: VI scheduling keeps FE on deadline, PR completes every 7-10 frames, degradation within 0.3%%")
	return res, nil
}
