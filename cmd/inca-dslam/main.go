// inca-dslam runs the full two-agent DSLAM co-simulation (§5.3 of the
// paper): each agent owns one simulated interruptible accelerator running
// SuperPoint-style FE at top priority and GeM-style PR continuously, with
// the CPU-side SLAM stack (VO, retrieval, map merging) on the deterministic
// ROS middleware.
//
// Usage:
//
//	inca-dslam -duration 30s
//	inca-dslam -duration 4s -chaos -trace out/dslam
//	inca-dslam -policy layer -frames out/frames -map
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"inca/internal/iau"
	"inca/internal/slam"
	"inca/internal/trace"
	"inca/internal/world"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, errw io.Writer) int {
	fs := flag.NewFlagSet("inca-dslam", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		duration = fs.Duration("duration", 30*time.Second, "simulated mission time")
		fps      = fs.Int("fps", 20, "camera frame rate")
		camW     = fs.Int("cam-w", 128, "camera width (use 640 for paper scale)")
		camH     = fs.Int("cam-h", 96, "camera height (use 480 for paper scale)")
		policy   = fs.String("policy", "vi", "interrupt policy: none|vi|layer|cpu")
		seed     = fs.Uint64("seed", 42, "world and noise seed")
		verbose  = fs.Bool("v", false, "print every accepted PR match")
		showMap  = fs.Bool("map", false, "render the arena and trajectories as ASCII")
		frames   = fs.String("frames", "", "write sample rendered camera frames (PNG) to this directory")
		traceOut = fs.String("trace", "", "write per-agent Perfetto traces to <prefix>.agentN.json (metrics beside each)")
		traceCap = fs.Int("trace-cap", 0, "trace ring capacity in events (0 = default)")

		chaos       = fs.Bool("chaos", false, "run under deterministic fault injection with the recovery stack armed")
		chaosSeed   = fs.Uint64("chaos-seed", 7, "fault injector seed")
		corruptRate = fs.Float64("corrupt-rate", 0.02, "snapshot/backup bit-flip rate (with -chaos)")
		stallRate   = fs.Float64("stall-rate", 0.02, "per-instruction stall rate (with -chaos)")
		hangRate    = fs.Float64("hang-rate", 1e-5, "per-instruction hang rate (with -chaos)")
		irqLostRate = fs.Float64("irq-lost-rate", 0.01, "lost preemption IRQ rate (with -chaos)")
		msgDropRate = fs.Float64("msg-drop-rate", 0.002, "ROS delivery drop rate (with -chaos)")
		maxRetries  = fs.Int("max-retries", 3, "resubmissions of a watchdog-killed inference (with -chaos)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	fail := func(format string, a ...interface{}) int {
		fmt.Fprintf(errw, "inca-dslam: "+format+"\n", a...)
		return 1
	}

	cfg := slam.DefaultDSLAMConfig()
	cfg.Duration = *duration
	cfg.FPS = *fps
	cfg.CameraW, cfg.CameraH = *camW, *camH
	cfg.Seed = *seed
	if *traceOut != "" {
		cfg.TraceCapacity = *traceCap
		if cfg.TraceCapacity == 0 {
			cfg.TraceCapacity = -1 // default ring size
		}
	}
	if *chaos {
		ch := slam.DefaultChaosConfig()
		ch.Seed = *chaosSeed
		ch.CorruptRate = *corruptRate
		ch.StallRate = *stallRate
		ch.HangRate = *hangRate
		ch.IRQLostRate = *irqLostRate
		ch.MsgDropRate = *msgDropRate
		ch.MaxRetries = *maxRetries
		cfg.Chaos = ch
	}
	switch *policy {
	case "vi":
		cfg.Policy = iau.PolicyVI
	case "none":
		cfg.Policy = iau.PolicyNone
	case "layer":
		cfg.Policy = iau.PolicyLayerByLayer
	case "cpu":
		cfg.Policy = iau.PolicyCPULike
	default:
		return fail("unknown policy %q", *policy)
	}

	fmt.Fprintf(stdout, "DSLAM: %v @ %d fps, camera %dx%d, policy %v, seed %d\n",
		*duration, *fps, *camW, *camH, cfg.Policy, *seed)
	res, err := slam.RunDSLAM(cfg)
	if err != nil {
		return fail("%v", err)
	}

	for i, a := range res.Agents {
		fmt.Fprintf(stdout, "\nagent %d:\n", i)
		fmt.Fprintf(stdout, "  camera frames     %d (FE done %d, dropped %d, deadline misses %d)\n",
			a.Frames, a.FEDone, a.FEDropped, a.FEMisses)
		fmt.Fprintf(stdout, "  FE latency        mean %v, max %v\n", a.FEMeanLat.Round(time.Microsecond), a.FEMaxLat.Round(time.Microsecond))
		fmt.Fprintf(stdout, "  VO                tracked %d, lost %d, end drift %.2f m\n", a.VOTracked, a.VOLost, a.DriftEnd)
		fmt.Fprintf(stdout, "  PR                %d inferences (1 per %.1f frames), preempted %d times\n",
			a.PRDone, a.PRMeanGapFrames, a.Preempts)
		fmt.Fprintf(stdout, "  accelerator       utilization %.0f%%, interrupt overhead %.3f%%\n",
			100*a.Utilization, 100*a.Degradation)
		if *chaos {
			fmt.Fprintf(stdout, "  recovery          %d corrupt restores detected, %d stalls, %d lost IRQs\n",
				a.CorruptedRestores, a.Stalls, a.LostIRQs)
			fmt.Fprintf(stdout, "                    %d watchdog kills -> %d retried, %d shed\n",
				a.WatchdogKills, a.Retries, a.Shed)
		}
	}
	if *chaos {
		fmt.Fprintf(stdout, "\n%s\n", res.Injected)
		fmt.Fprintf(stdout, "ros transport: %d dropped, %d delayed, %d duplicated\n",
			res.MsgFaults.Dropped, res.MsgFaults.Delayed, res.MsgFaults.Duplicated)
	}

	if *traceOut != "" {
		for i, tr := range res.Tracers {
			if tr == nil {
				continue
			}
			path := fmt.Sprintf("%s.agent%d.json", *traceOut, i)
			if err := trace.WriteFiles(tr, path, fmt.Sprintf("inca-dslam agent %d", i)); err != nil {
				return fail("%v", err)
			}
			fmt.Fprintf(stdout, "\nagent %d trace: %s (%d events, %d dropped), metrics %s\n",
				i, path, len(tr.Events()), tr.Dropped(), trace.MetricsPath(path))
		}
	}

	fmt.Fprintf(stdout, "\nplace recognition: %d accepted cross-agent matches\n", len(res.Matches))
	if res.Merged() {
		first := res.Matches[0]
		fmt.Fprintf(stdout, "maps merged at t=%v (similarity %.3f, %d feature matches)\n",
			res.FirstMergeTime.Round(time.Millisecond), first.Similarity, first.Matches)
		fmt.Fprintf(stdout, "merge transform error: %.2f m / %.3f rad vs ground truth\n", first.ErrTrans, first.ErrRot)
		if !math.IsNaN(res.MergedError) {
			fmt.Fprintf(stdout, "merged-map trajectory error: %.2f m (first match), %.2f m (refined over %d matches)\n",
				res.MergedError, res.RefinedError, len(res.Matches))
		}
		if *verbose {
			for i, m := range res.Matches {
				fmt.Fprintf(stdout, "  match %3d t=%v sim=%.3f support=%d errT=%.2fm errR=%.3f\n",
					i, m.Stamp.Round(time.Millisecond), m.Similarity, m.Matches, m.ErrTrans, m.ErrRot)
			}
		}
	} else {
		fmt.Fprintln(stdout, "maps were not merged within the mission time")
	}

	if *frames != "" {
		w := world.NewArena(*seed)
		a0, _ := world.TwoAgentPatrol(w)
		cam := world.DefaultCamera(*camW, *camH)
		const nFrames = 5
		for i := 0; i < nFrames; i++ {
			ts := time.Duration(i*4) * time.Second
			obs := cam.Observe(w, 0, a0.PoseAt(ts), ts, *seed^0xCA11)
			path := fmt.Sprintf("%s/agent0_t%02ds.png", *frames, i*4)
			if err := world.WritePNG(cam.Render(obs), path); err != nil {
				return fail("writing %s: %v", path, err)
			}
		}
		fmt.Fprintf(stdout, "\nwrote %d camera frames to %s\n", nFrames, *frames)
	}

	if *showMap {
		w := world.NewArena(*seed)
		m := world.NewAsciiMap(w, 72, 24)
		for agent := 0; agent < 2; agent++ {
			mark := rune('a' + agent)
			var poses []world.Pose
			for _, kf := range res.KeyFrames(agent) {
				poses = append(poses, kf.True)
			}
			m.Track(poses, mark)
		}
		if res.Merged() {
			// Agent 1's odometry projected through the refined transform
			// into agent 0's frame (and on into world coordinates through
			// agent 0's last keyframe).
			m0 := res.Matches[0]
			aKeys := res.KeyFrames(m0.AgentA)
			if len(aKeys) > 0 {
				ka := aKeys[len(aKeys)-1]
				tWA := ka.True.Compose(ka.Odom.Inverse())
				var est []world.Pose
				for _, kb := range res.KeyFrames(m0.AgentB) {
					est = append(est, tWA.Compose(res.RefinedTAB).Compose(kb.Odom))
				}
				m.Track(est, '+')
			}
		}
		fmt.Fprintf(stdout, "\narena (a/b = true trajectories, + = merged estimate of b in a's map, O = pillars):\n%s", m)
	}
	return 0
}
