GO ?= go

.PHONY: tier1 build test bench bench-deploy bench-gate bench-baseline sched-gate vi-gate race refconv vet lint lint-report chaos chaos-cluster fuzz-smoke cover trace progcheck benchmark-smoke loc

# tier1 is the gate every change must keep green.
# `cover` is the one full `go test ./...` run of the gate (with a coverage
# profile); `test` is the same run without one, for humans.
tier1: build vet lint benchmark-smoke race fuzz-smoke cover trace progcheck bench-gate chaos-cluster

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark harness (BENCHMARK.json, benchmark/) is a module of its own,
# so `go test ./...` at the root cannot see its test: every workload at
# smoke size, with every output check on.
benchmark-smoke:
	cd benchmark && $(GO) test ./...

# Non-test Go lines outside benchmark/ and testdata/: ROADMAP aim 2 says net
# LOC should fall, and this is the number it means.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' | xargs cat | wc -l

# Datapath micro-benchmarks (MACs/s per layer shape, snapshot round trip),
# the IAU's timing-only cost (Mcycles/s, the headline, and ns/instr: the
# in-module view of the benchmark's preempt_mix and dslam_mission host
# numbers; a solo run is one jump on the program's plan, FE every 20 ms
# measures the stepping between arrivals) and the functional datapath end to
# end through the IAU (MACs/s per worker count).
# The experiment tables are `inca-bench -e`, not testing.B benchmarks.
bench:
	$(GO) test -run xxx -bench 'BenchmarkEngine' -benchmem ./internal/accel
	$(GO) test -run xxx -bench 'BenchmarkIAUTimingOnly|BenchmarkFunctionalInference' -benchmem ./internal/iau

# Per-phase cost of one cold deploy (synthesize, compile, verify, encode,
# decode, arena) of ResNet-18 60x80: ns, MB and allocations per phase, the
# in-module view of what the benchmark's deploy_cold workload times. Not
# part of tier1.
bench-deploy:
	$(GO) test -run '^$$' -bench 'BenchmarkDeployPhases' -benchmem ./internal/core

# The snapshot suites (internal/bench.Suites): every number in them comes
# from the deterministic cycle model, so the gate re-measures each suite and
# fails unless the result is byte-identical to the checked-in BENCH_<suite>.json
# — an improvement fails like a regression; refresh with bench-baseline.
SUITES := datapath cluster sched vi
bench-gate:
	set -e; for s in $(SUITES); do $(GO) run ./cmd/inca-bench -suite=$$s -gate BENCH_$$s.json; done

# Scheduling-policy gate alone: predictive vs static-priority vs
# rate-monotonic on the DSLAM task set, including the predictive-SLA >=
# static-SLA invariant.
sched-gate:
	$(GO) run ./cmd/inca-bench -suite=sched -gate BENCH_sched.json

# Interrupt-point placement gate alone: VIEvery vs VIBudget footprint on the
# DSLAM model set, with every measured preemption response checked against
# the compiler-proven bound.
vi-gate:
	$(GO) run ./cmd/inca-bench -suite=vi -gate BENCH_vi.json

# Refresh the checked-in snapshots (run after an intentional cycle-model,
# compiler, scheduler or cluster change, review the diff, and commit it). A
# suite whose baseline-free contract fails writes nothing.
bench-baseline:
	set -e; for s in $(SUITES); do $(GO) run ./cmd/inca-bench -suite=$$s -snapshot BENCH_$$s.json; done

# Race-detector pass: the accel differential tests plus bounded slices of
# the sched, slam, and trace suites (-run filters keep tier1 time sane; the
# full suites run race-free under `make test`).
race:
	$(GO) test -race -run 'TestDatapathDifferential|TestSnapshotRoundTrip' -count 1 ./internal/accel
	$(GO) test -race -run 'TestTraceDeterministicAndConserved|TestRunWithoutTracerMatchesTraced|TestPredictiveColdFallbackToStatic|TestPredictiveDecisionTraceDeterministic' -count 1 ./internal/sched
	$(GO) test -race -run 'TestCameraFrameThroughAccelerator|TestRefineMerge|TestAlignKeyFramesRecoversTransform|TestOdometryTracksStraightLine' -count 1 ./internal/slam
	$(GO) test -race -run 'TestClusterFaultFreeBitExact|TestClusterUnverifiableRejected|TestClusterChaosBitExactAndDeterministic' -count 1 ./internal/cluster
	$(GO) test -race -run 'TestProgcheckMutations|TestProgcheckLinkedPrograms' -count 1 ./internal/verify
	$(GO) test -race -count 1 ./internal/trace

# Verify the build-tag pin that forces the scalar reference datapath.
refconv:
	$(GO) build -tags inca_refconv ./...
	$(GO) test -tags inca_refconv -count 1 ./internal/accel

vet:
	$(GO) vet ./...

# Custom static-analysis suite (determinism, traceguard, clockowner,
# pairing, testonly, lockdiscipline, boundtrust); see DESIGN.md §12 for
# the invariant each analyzer front-runs. lint fails the build on findings; lint-report prints the same
# findings but always exits 0 (survey mode while fixing a violation sweep).
lint:
	$(GO) run ./cmd/inca-lint -dir .

lint-report:
	$(GO) run ./cmd/inca-lint -dir . -report

# Short native-fuzzing pass over the three verification targets: golden
# differential (FuzzCompileRun), full preemption harness (FuzzPreemptResume)
# and codec robustness (FuzzEncodeDecode). Checked-in seeds live under
# internal/verify/testdata/fuzz/.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/verify -run xxx -fuzz FuzzCompileRun -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verify -run xxx -fuzz FuzzPreemptResume -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verify -run xxx -fuzz FuzzEncodeDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verify -run xxx -fuzz FuzzProgcheckMutations -fuzztime $(FUZZTIME)

# Static-verification gate: every deterministic fuzz-corpus victim passes the
# internal/progcheck abstract interpreter, every seeded single-instruction
# mutation is caught with the predicted diagnostic class, and the dslam model
# set verifies end to end through the inca-vet CLI.
progcheck:
	$(GO) test -count 1 -run 'TestProgcheckCorpus|TestProgcheckMutations|TestProgcheckLinkedPrograms' ./internal/verify
	$(GO) test -count 1 ./internal/progcheck ./cmd/inca-vet
	$(GO) run ./cmd/inca-vet -accel big -models dslam

# Total-statement-coverage gate with a ratcheted floor: raise COVER_FLOOR
# when coverage grows, never lower it to dodge a regression.
COVER_FLOOR ?= 82.0
COVERPROFILE ?= out/cover.out
cover:
	@mkdir -p $(dir $(COVERPROFILE))
	$(GO) test ./... -count 1 -coverprofile=$(COVERPROFILE)
	@total=$$($(GO) tool cover -func=$(COVERPROFILE) | awk '/^total:/ { gsub("%","",$$3); print $$3 }'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	  { echo "FAIL: coverage $$total% below ratchet floor $(COVER_FLOOR)%"; exit 1; }

# Trace smoke: the seeded two-task preemption workload, and inca-sim's
# default mix with its Gantt chart and timeline read off the same tracer,
# must each produce a Perfetto-loadable trace (WriteFiles re-parses it
# through the validator before anything reaches disk) plus a metrics
# snapshot beside it.
TRACEOUT ?= out/trace.json
trace:
	@mkdir -p $(dir $(TRACEOUT))
	$(GO) run ./cmd/inca-bench -trace $(TRACEOUT) -trace-cap 4096
	$(GO) run ./cmd/inca-sim -duration 300ms -gantt -timeline -trace $(dir $(TRACEOUT))sim.json > /dev/null
	@test -s $(TRACEOUT) && test -s $(basename $(TRACEOUT)).metrics.json && \
	  test -s $(dir $(TRACEOUT))sim.json && test -s $(dir $(TRACEOUT))sim.metrics.json && \
	  echo "trace smoke ok: $(TRACEOUT) $(dir $(TRACEOUT))sim.json"

# Chaos gate: the two-agent DSLAM mission under injected snapshot
# corruption, stalls, hangs, lost IRQs and message faults must keep a
# zero FE deadline-miss rate, detect every corrupt restore, and still
# merge the maps — plus determinism and zero-rate-invisibility checks.
chaos:
	$(GO) test -count 1 -run 'TestChaos' -v ./internal/slam ./internal/sched

# Cluster chaos gate: the 4-engine serving chaos scenario (forced watchdog
# kills, 5% backup corruption, 5% stalls, quarantine at the first kill)
# must complete every task bit-exactly with zero losses and a byte-identical
# same-seed report — with and without the predictive per-engine scheduler —
# then the serving CLI replays the ISSUE operating point (5% per-attempt
# hangs + 5% corruption on 4 engines) end to end with functional golden
# verification.
chaos-cluster:
	$(GO) test -count 1 -run 'TestClusterChaos|TestClusterPredictiveChaos' -v ./internal/cluster
	$(GO) run ./cmd/inca-serve -engines 4 -tasks 48 -hang 0.05 -corrupt 0.05 -stall 0.05 -functional
