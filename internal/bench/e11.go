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

// E11Schedulability turns Eq. (1) into a deadline guarantee: response-time
// analysis of the DSLAM task set under each interrupt mechanism, swept over
// FE deadlines. The paper argues FE "must be completed within specified
// hard deadlines"; this table shows which mechanisms can promise that, and
// down to which deadline.
func E11Schedulability(scale Scale) (*Table, error) {
	cfg := accel.Big()
	h, w := scale.inputSize()
	feNet := model.NewSuperPoint(h*3/4, w*3/4)
	prNet, err := model.NewGeM(3, h, w)
	if err != nil {
		return nil, err
	}
	fe, err := compileNet(cfg, feNet, compiler.VINone{}, 1)
	if err != nil {
		return nil, err
	}
	pr, err := compileNet(cfg, prNet, compiler.VIEvery{}, 1)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "E11",
		Title: "schedulability — RTA worst-case FE response under each mechanism (FE@20fps + PR)",
		Columns: []string{"policy", "FE cost(ms)", "blocking(ms)",
			"WCRT(ms)", "meets 50ms", "min deadline(ms)"},
	}
	for _, pol := range []iau.Policy{iau.PolicyNone, iau.PolicyCPULike, iau.PolicyLayerByLayer, iau.PolicyVI} {
		feM, err := sched.NewTaskModel(cfg, "FE", 0, fe, pol, 50*time.Millisecond, 50*time.Millisecond)
		if err != nil {
			return nil, err
		}
		prM, err := sched.NewTaskModel(cfg, "PR", 1, pr, pol, 0, 0)
		if err != nil {
			return nil, err
		}
		res, err := sched.Analyze([]sched.TaskModel{feM, prM})
		if err != nil {
			return nil, err
		}
		wcrt := res[0].Response
		meets := "no"
		if res[0].Feasible {
			meets = "yes"
		}
		t.AddRow(pol.String(),
			fmt.Sprintf("%.1f", cfg.CyclesToMicros(feM.Cost)/1000),
			fmt.Sprintf("%.3f", cfg.CyclesToMicros(prM.Blocking)/1000),
			fmt.Sprintf("%.1f", cfg.CyclesToMicros(wcrt)/1000),
			meets,
			fmt.Sprintf("%.1f", cfg.CyclesToMicros(wcrt)/1000),
		)
	}
	t.AddNote("WCRT = blocking from the PR task + FE cost; the tightest promisable FE deadline equals the WCRT")
	t.AddNote("validated against simulation in internal/sched's RTA tests (analysis upper-bounds every observed response)")
	return t, nil
}
