package bench

import (
	"fmt"
	"strconv"
	"testing"
)

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

// TestE9ScalesOnCluster pins E9's claim on the one multi-engine runner: at
// every engine count every camera frame completes inside its deadline and
// nothing is shed, background throughput rises with each engine (at least
// 1.5x from one to two), and the table is a pure function of the scale.
func TestE9ScalesOnCluster(t *testing.T) {
	tb, err := E9MultiCore(Quick)
	if err != nil {
		t.Fatal(err)
	}
	col := make(map[string]int)
	for i, c := range tb.Columns {
		col[c] = i
	}
	if len(tb.Rows) != len(e9Engines) {
		t.Fatalf("%d rows for %d engine counts:\n%s", len(tb.Rows), len(e9Engines), tb)
	}
	const frames = 60 // 3 s at 20 fps
	var bg []float64
	for i, row := range tb.Rows {
		if row[col["engines"]] != strconv.Itoa(e9Engines[i]) {
			t.Errorf("row %d is for %s engines, want %d", i, row[col["engines"]], e9Engines[i])
		}
		if got, want := row[col["FE done"]], fmt.Sprintf("%d/%d", frames, frames); got != want {
			t.Errorf("%s engines: FE done %s, want %s", row[0], got, want)
		}
		if row[col["FE miss"]] != "0" || row[col["shed"]] != "0" {
			t.Errorf("%s engines: FE miss %s, shed %s, want 0 and 0", row[0], row[col["FE miss"]], row[col["shed"]])
		}
		v, err := strconv.ParseFloat(row[col["background/s"]], 64)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && v <= bg[i-1] {
			t.Errorf("background/s %v at %s engines not above %v at %d", v, row[0], bg[i-1], e9Engines[i-1])
		}
		bg = append(bg, v)
	}
	if bg[1] < 1.5*bg[0] {
		t.Errorf("background/s %v on 2 engines is under 1.5x the %v of one", bg[1], bg[0])
	}

	again, err := E9MultiCore(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if tb.String() != again.String() {
		t.Errorf("E9 differs between two calls:\n%s\n---\n%s", tb, again)
	}
}
