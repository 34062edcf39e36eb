package bench

import "testing"

// TestClusterBenchDeterministicAndGateable pins what makes BENCH_cluster.json
// worth gating: every scenario drains its ledger and the fault scenarios
// actually exercise the robustness machinery. Determinism and the gate itself
// are TestGateAgainstCheckedInBaseline and TestGateDecisions.
func TestClusterBenchDeterministicAndGateable(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep is seconds-long; skipped under -short")
	}
	a, tbl, err := ClusterBench()
	if err != nil {
		t.Fatalf("ClusterBench: %v", err)
	}
	if len(a.Scenarios) != 6 {
		t.Fatalf("want 6 scenarios (n=1/2/4 x faults off/on), got %d", len(a.Scenarios))
	}

	kills, migrations := 0, 0
	for _, s := range a.Scenarios {
		if s.Completed+s.Shed != s.Offered {
			t.Errorf("%s: ledger broken: %d+%d != %d", s.Name, s.Completed, s.Shed, s.Offered)
		}
		if !s.Faults && (s.WatchdogKills != 0 || s.Quarantines != 0) {
			t.Errorf("%s: fault-free scenario recorded %d kills, %d quarantines",
				s.Name, s.WatchdogKills, s.Quarantines)
		}
		if s.Faults {
			kills += s.WatchdogKills
			migrations += s.Migrations
		}
	}
	if kills == 0 || migrations == 0 {
		t.Errorf("fault scenarios exercised nothing: %d kills, %d migrations", kills, migrations)
	}
	if tbl == nil || len(tbl.Rows) != len(a.Scenarios) {
		t.Fatalf("table rows (%d) do not match scenarios (%d)", len(tbl.Rows), len(a.Scenarios))
	}
}
