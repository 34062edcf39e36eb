package main

import (
	"time"

	"inca/internal/core"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/slam"
)

// runDSLAM is the paper's §5.3 system end to end: two agents, each with a
// camera at 20 fps feeding feature extraction at top priority while place
// recognition runs continuously below it, through slam, ros, core.poll and
// the IAU. Open loop: camera frames arrive on the simulated clock. A
// repetition is one mission (RunDSLAM is a single call, deploy included); an
// op is one camera frame.
func runDSLAM(e *env) (*result, error) {
	cfg := slam.DefaultDSLAMConfig()
	cfg.Seed = e.seed
	cfg.Duration = e.sz.mission
	cfg.CameraH, cfg.CameraW = e.sz.camera.h, e.sz.camera.w
	cfg.Accel.Workers = 1
	res := &result{sim: simObs{freqMHz: cfg.Accel.FreqMHz}}

	// Set-up deploys agent 0's two networks exactly as RunDSLAM will (same
	// shapes, seeds and slots), which gives the deploy set for the static
	// metrics and the probe. There is no warm-up mission: one is the run.
	progs, err := setup(e, res, func() ([]*isa.Program, error) {
		pr, err := model.NewGeM(3, cfg.CameraH, cfg.CameraW)
		if err != nil {
			return nil, err
		}
		rt, err := core.NewRuntime(cfg.Accel, cfg.Policy)
		if err != nil {
			return nil, err
		}
		defer rt.U.Eng.Close()
		var progs []*isa.Program
		for slot, g := range []*model.Network{model.NewSuperPoint(cfg.CameraH*3/4, cfg.CameraW*3/4), pr} {
			var d *core.Deployment
			if _, err := e.call("core", "core.deploy", slot, func() (err error) {
				d, err = rt.Deploy(slot, g, cfg.Seed+uint64(100*slot))
				return err
			}); err != nil {
				return nil, err
			}
			progs = append(progs, d.Prog)
		}
		return progs, nil
	})
	if err != nil {
		return nil, err
	}
	res.sim.progs = progs

	var out *slam.DSLAMResult
	var wall time.Duration
	frames := cfg.FPS * int(cfg.Duration/time.Millisecond) / 1000
	err = e.timed(res, 1, func(i int, first bool) (int, time.Duration, error) {
		var err error
		wall, err = e.call("slam", "slam.run_dslam", i, func() (err error) {
			out, err = slam.RunDSLAM(cfg)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		res.attempted += 2 * frames
		for a, st := range out.Agents {
			if st.Frames != frames || st.FEMisses != 0 || st.VOLost != 0 || st.FEDropped != 0 {
				res.fail(frames, "agent %d: %d frames (want %d), %d FE misses, %d FE drops, %d VO losses", a, st.Frames, frames, st.FEMisses, st.FEDropped, st.VOLost)
			}
		}
		if first {
			s := &res.sim
			horizon := cfg.Accel.SecondsToCycles(cfg.Duration.Seconds())
			for _, st := range out.Agents {
				// AgentStats carries the FE latency's mean and maximum, not
				// its distribution: they stand in for p50 and p99.
				s.cycles = append(s.cycles, uint64(st.Utilization*float64(horizon))/uint64(st.Frames))
				s.latency = append(s.latency, cfg.Accel.SecondsToCycles(st.FEMeanLat.Seconds()), cfg.Accel.SecondsToCycles(st.FEMaxLat.Seconds()))
				s.offered += st.FEDone + st.FEDropped // a frame still in flight when the mission ends is neither
				s.met += st.FEDone - st.FEMisses
				s.done += st.PRDone
			}
			s.span = horizon
		}
		return 2 * frames, wall, nil
	})
	if err != nil {
		return nil, err
	}
	if err := e.probe(res, cfg.Accel, progs); err != nil {
		return nil, err
	}
	if e.rec != nil {
		a := out.Agents[0]
		res.setLayer("slam.frames_per_host_s", float64(2*frames)/wall.Seconds())
		res.setLayer("slam.fe_mean_lat_cycles", float64(cfg.Accel.SecondsToCycles(a.FEMeanLat.Seconds())))
		res.setLayer("slam.fe_max_lat_cycles", float64(cfg.Accel.SecondsToCycles(a.FEMaxLat.Seconds())))
		res.setLayer("slam.pr_done", float64(out.Agents[0].PRDone+out.Agents[1].PRDone))
		res.setLayer("slam.preempts", float64(out.Agents[0].Preempts+out.Agents[1].Preempts))
		res.setLayer("slam.degradation_pct", 100*a.Degradation)
		res.setLayer("slam.utilization_pct", 100*a.Utilization)
		res.setLayer("slam.merges", float64(len(out.Matches)))
		res.setLayer("core.deploy_ms", e.rec.meanMs("core", "core.deploy"))
		// RunDSLAM deploys both networks once per agent before the mission
		// starts; set-up timed the same two deployments.
		deployNs, n := e.rec.sum("core", "core.deploy")
		deploy := 2 * deployNs / float64(n/2)
		res.split = map[string]float64{"core.Deploy (2 agents)": deploy, "mission stepping (slam/ros/core.poll/iau)": float64(wall) - deploy}
	}
	return res, nil
}
