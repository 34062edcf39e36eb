package bench

import "testing"

// TestSchedBenchDeterministicAndGateable pins what makes BENCH_sched.json
// worth gating: the three scenarios tell the intended story (static priority
// misses the misassigned deadline, rate-monotonic and predictive do not).
// Determinism and the gate itself are TestGateAgainstCheckedInBaseline and
// TestGateDecisions; the predictive >= static contract is TestSuiteContracts.
func TestSchedBenchDeterministicAndGateable(t *testing.T) {
	if testing.Short() {
		t.Skip("scheduling sweep compiles three networks; skipped under -short")
	}
	a, tbl, err := SchedBench()
	if err != nil {
		t.Fatalf("SchedBench: %v", err)
	}
	if len(a.Scenarios) != 3 {
		t.Fatalf("want 3 scenarios (static/rm/predictive), got %d", len(a.Scenarios))
	}
	if tbl == nil || len(tbl.Rows) != len(a.Scenarios) {
		t.Fatalf("table rows (%d) do not match scenarios (%d)", len(tbl.Rows), len(a.Scenarios))
	}

	byName := map[string]SchedScenario{}
	for _, s := range a.Scenarios {
		byName[s.Name] = s
		if s.Completed == 0 || s.Submitted == 0 {
			t.Errorf("%s: nothing ran (%+v)", s.Name, s)
		}
		if s.MeanSLAPct <= 0 || s.MeanSLAPct > 100 {
			t.Errorf("%s: SLA %.1f%% out of range", s.Name, s.MeanSLAPct)
		}
		if s.RTATasks != 2 {
			t.Errorf("%s: RTA analyzed %d deadline tasks, want 2", s.Name, s.RTATasks)
		}
	}
	st, rm, pr := byName["static"], byName["rm"], byName["predictive"]
	// The misassigned static slots must actually hurt: RTA proves LOOP
	// infeasible and the run records the misses.
	if st.RTAFeasible != 1 || st.DeadlineMisses == 0 {
		t.Errorf("static scenario lost its priority inversion: RTA %d/%d feasible, %d misses",
			st.RTAFeasible, st.RTATasks, st.DeadlineMisses)
	}
	if rm.RTAFeasible != 2 || rm.DeadlineMisses != 0 {
		t.Errorf("rate-monotonic should fix the inversion: RTA %d/%d, %d misses",
			rm.RTAFeasible, rm.RTATasks, rm.DeadlineMisses)
	}
	// The headline claim: predictive recovers the SLA on the same slot
	// assignment RTA calls infeasible, without the re-slotting RM needs.
	if !pr.Predictive || pr.Decisions == 0 {
		t.Errorf("predictive scenario did not exercise the cost model: %+v", pr)
	}
	if pr.MeanSLAPct < st.MeanSLAPct {
		t.Errorf("predictive SLA %.1f%% below static %.1f%%", pr.MeanSLAPct, st.MeanSLAPct)
	}
	if pr.DeadlineMisses > st.DeadlineMisses {
		t.Errorf("predictive missed more deadlines than static (%d > %d)",
			pr.DeadlineMisses, st.DeadlineMisses)
	}
}
