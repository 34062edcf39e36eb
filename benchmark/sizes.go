package main

import "time"

// hw is a featuremap height and width.
type hw struct{ h, w int }

// sizes is everything that scales a workload. fullSizes is the benchmark;
// smokeSizes cuts every shape and count so the harness's own test runs all
// seven workloads in a few seconds. Nothing else in the harness branches on
// which of the two is in use.
type sizes struct {
	setups int // set-up repetitions (setup_s is their median)
	probes int // arrivals the probe makes at least, over a deploy set
	// probeCycles is the simulated time the probe spends per victim when that
	// buys more arrivals than probes asks for.
	probeCycles uint64

	// infer_dense: SuperPoint, ResNet-18, MobileNetV1 input shapes.
	dense [3]hw
	// infer_batch8: ResNet-18 input shape and batch size.
	batchIn hw
	batch   int

	// preempt_mix: FE (SuperPoint) and PR (ResNet of prDepth) shapes, the FE
	// period (= its deadline), the simulated length of a slice and how many
	// seeded slices make the first pass; schedSim is the horizon of the
	// three-task policy comparison in the traced run.
	fe, pr   hw
	prDepth  int
	fePeriod time.Duration
	sliceSim time.Duration
	slices   int
	schedSim time.Duration

	// deploy_cold: the deploy set's shapes (SuperPoint x2, ResNet-18, the deep
	// ResNet, VGG-16, MobileNetV1).
	deploy    [6]hw
	deepDepth int

	// serve_*: requests in the functional stream the host metrics are timed
	// on, and the timing-only replay the simulated metrics are pooled from.
	serveFunctional int
	serveStreams    int
	serveStreamLen  int

	// dslam_mission: camera resolution and simulated mission length.
	camera  hw
	mission time.Duration
}

func fullSizes() sizes {
	return sizes{
		setups: 3,
		probes: 4000, probeCycles: 60e6,

		dense:   [3]hw{{60, 80}, {60, 80}, {64, 64}},
		batchIn: hw{32, 32},
		batch:   8,

		fe: hw{120, 160}, pr: hw{120, 160}, prDepth: 101,
		fePeriod: 20 * time.Millisecond,
		sliceSim: 2 * time.Second,
		slices:   10,
		schedSim: 400 * time.Millisecond,

		deploy:    [6]hw{{60, 80}, {90, 120}, {60, 80}, {96, 128}, {96, 128}, {96, 128}},
		deepDepth: 101,

		serveFunctional: 300,
		serveStreams:    40,
		serveStreamLen:  3000,

		camera:  hw{96, 128},
		mission: 6 * time.Second,
	}
}

func smokeSizes() sizes {
	return sizes{
		setups: 1,
		probes: 60,

		dense:   [3]hw{{24, 32}, {32, 32}, {32, 32}},
		batchIn: hw{32, 32},
		batch:   2,

		fe: hw{24, 32}, pr: hw{32, 32}, prDepth: 18,
		fePeriod: 1 * time.Millisecond,
		sliceSim: 20 * time.Millisecond,
		slices:   2,
		schedSim: 20 * time.Millisecond,

		deploy:    [6]hw{{24, 32}, {24, 32}, {32, 32}, {32, 32}, {32, 32}, {32, 32}},
		deepDepth: 18,

		serveFunctional: 24,
		serveStreams:    2,
		serveStreamLen:  120,

		camera:  hw{48, 64},
		mission: 300 * time.Millisecond,
	}
}
