package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGateAgainstCheckedInBaseline replays `make bench-gate` for every
// suite: one fresh measurement passes its contract and renders to exactly the
// bytes of the checked-in file. That makes a stale BENCH_*.json a `go test`
// failure, and it is the determinism test — the file was measured by another
// process at another commit.
func TestGateAgainstCheckedInBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("measures every suite; skipped under -short")
	}
	for _, s := range Suites {
		t.Run(s.Name, func(t *testing.T) {
			snap, table, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if table == nil || len(table.Rows) == 0 {
				t.Fatal("suite rendered no table")
			}
			if err := Gate(snap, filepath.Join("..", "..", s.File)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func snapFixture() *DatapathSnapshot {
	return &DatapathSnapshot{
		Config: "angel-eye-serving", Batch: DatapathBatch,
		Kernels: []DatapathKernel{
			{Kernel: "dense3x3", ModelGMACsB1: 24, ModelGMACsB8: 64},
			{Kernel: "resfused", ModelGMACsB1: 38, ModelGMACsB8: 57},
		},
	}
}

// TestGateDecisions pins the one regression rule on a hand-built snapshot:
// only a byte-identical file passes, and the error shows each differing line
// as checked in and as measured, plus the way out.
func TestGateDecisions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	data, err := Render(snapFixture())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// fails gates cur against the fixture's file and wants every substring in
	// the error.
	fails := func(t *testing.T, cur *DatapathSnapshot, file string, want ...string) {
		t.Helper()
		err := Gate(cur, file)
		if err == nil {
			t.Fatal("gate passed")
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("error missing %q:\n%v", w, err)
			}
		}
	}

	t.Run("identical passes", func(t *testing.T) {
		if err := Gate(snapFixture(), path); err != nil {
			t.Fatalf("identical snapshot failed the gate: %v", err)
		}
	})
	t.Run("regression fails", func(t *testing.T) {
		cur := snapFixture()
		cur.Kernels[1].ModelGMACsB8 = 56.5
		fails(t, cur, path, "line 16:\n  -       \"model_gmacs_b8\": 57,\n  +       \"model_gmacs_b8\": 56.5,\n", "make bench-baseline")
	})
	t.Run("improvement fails", func(t *testing.T) {
		cur := snapFixture()
		cur.Kernels[0].ModelGMACsB8 = 64.001
		fails(t, cur, path, "line 8:\n  -       \"model_gmacs_b8\": 64,\n  +       \"model_gmacs_b8\": 64.001,\n", "make bench-baseline")
	})
	t.Run("missing kernel fails both directions", func(t *testing.T) {
		cur := snapFixture()
		cur.Kernels = cur.Kernels[:1]
		fails(t, cur, path, "line 12:\n  -     },\n  +     }\n", "line counts differ")
		cur = snapFixture()
		cur.Kernels = append(cur.Kernels, DatapathKernel{Kernel: "brandnew", ModelGMACsB1: 1, ModelGMACsB8: 2})
		fails(t, cur, path, "line 20:\n  -     }\n  +     },\n", "line counts differ")
	})
	t.Run("key on one side only fails", func(t *testing.T) {
		stale := filepath.Join(t.TempDir(), "stale.json")
		old := bytes.Replace(data, []byte("{\n"), []byte("{\n  \"git_rev\": \"abc\",\n"), 1)
		if err := os.WriteFile(stale, old, 0o644); err != nil {
			t.Fatal(err)
		}
		fails(t, snapFixture(), stale, "line 2:\n  -   \"git_rev\": \"abc\",\n  +   \"config\"", "line counts differ")
	})
	t.Run("same values in other bytes fail", func(t *testing.T) {
		compact := filepath.Join(t.TempDir(), "compact.json")
		if err := os.WriteFile(compact, bytes.ReplaceAll(data, []byte("  "), nil), 0o644); err != nil {
			t.Fatal(err)
		}
		fails(t, snapFixture(), compact, "line 2:\n  - \"config\": \"angel-eye-serving\",\n  +   \"config\": \"angel-eye-serving\",\n")
	})
	t.Run("unreadable baseline fails", func(t *testing.T) {
		fails(t, snapFixture(), filepath.Join(t.TempDir(), "missing.json"), "baseline:")
	})
}

func viFixture() *VISnapshot {
	return &VISnapshot{Config: "angel-eye-small", BudgetScale: viBudgetScale, Models: []VIModel{{
		Name: "FE", Budget: 400,
		Every:    VIPlacement{Policy: "every", Points: 10, StreamBytes: 1000, VirSaveBytes: 500, Bound: 100, MeasuredWorst: 90, Preemptions: 5},
		Budgeted: VIPlacement{Policy: "budget", Points: 3, StreamBytes: 900, VirSaveBytes: 100, Bound: 390, MeasuredWorst: 380, Preemptions: 4},
	}}}
}

func schedFixture() *SchedSnapshot {
	return &SchedSnapshot{Config: "angel-eye-small", HorizonMS: 400, Scenarios: []SchedScenario{
		{Name: "static", MeanSLAPct: 96},
		{Name: "rm", MeanSLAPct: 100},
		{Name: "predictive", Predictive: true, MeanSLAPct: 100},
	}}
}

// TestSuiteContracts: Run refuses a measurement that breaks any clause of the
// suite's baseline-free contract — no snapshot comes back, so there is
// nothing to write or gate — and accepts the clean fixture the clause was
// broken in.
func TestSuiteContracts(t *testing.T) {
	tests := []struct {
		suite, clause string
		snapshot      func() any
		want          string // substring of the violation; "" = clean
	}{
		{"vi", "clean", func() any { return viFixture() }, ""},
		{"vi", "measured above bound", func() any {
			s := viFixture()
			s.Models[0].Budgeted.MeasuredWorst = 391
			return s
		}, "FE/budget: measured worst response 391 cycles exceeds the proven bound 390"},
		{"vi", "vacuous sweep", func() any {
			s := viFixture()
			s.Models[0].Every.Preemptions = 0
			return s
		}, "FE/every: adversarial sweep produced no preemptions"},
		{"vi", "bound above budget", func() any {
			s := viFixture()
			s.Models[0].Budget = 389
			return s
		}, "emitted bound 390 exceeds the optimizer's budget 389"},
		{"vi", "points not pruned", func() any {
			s := viFixture()
			s.Models[0].Budgeted.Points = 10
			return s
		}, "the optimizer pruned nothing"},
		{"vi", "stream not smaller", func() any {
			s := viFixture()
			s.Models[0].Budgeted.StreamBytes = 1000
			return s
		}, "budget stream 1000 B not smaller"},
		{"vi", "Vir_SAVE not smaller", func() any {
			s := viFixture()
			s.Models[0].Budgeted.VirSaveBytes = 500
			return s
		}, "budget Vir_SAVE traffic 500 B not smaller"},
		{"sched", "clean", func() any { return schedFixture() }, ""},
		{"sched", "predictive below static", func() any {
			s := schedFixture()
			s.Scenarios[2].MeanSLAPct = 95.9
			return s
		}, "predictive SLA 95.9% below static 96.0%"},
	}
	for _, tc := range tests {
		t.Run(tc.suite+"/"+tc.clause, func(t *testing.T) {
			var s Suite
			for _, real := range Suites {
				if real.Name == tc.suite {
					s = real
				}
			}
			if s.Check == nil {
				t.Fatalf("suite %q has no contract", tc.suite)
			}
			s.Measure = func() (any, *Table, error) { return tc.snapshot(), &Table{ID: "FIXTURE"}, nil }
			snap, table, err := s.Run()
			if table == nil {
				t.Error("table withheld; it is the operator's only view of a violating run")
			}
			if tc.want == "" {
				if err != nil || snap == nil {
					t.Fatalf("clean fixture refused: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want a violation containing %q, got %v", tc.want, err)
			}
			if snap != nil {
				t.Fatal("a violating measurement still returned a snapshot")
			}
		})
	}
}
