package bench

// The snapshot suites behind `inca-bench -suite=X` and their one gate. Every
// number a suite records comes from the deterministic cycle model, so what
// counts as a regression needs no tolerance, direction or schema version: the
// fresh measurement either renders to the checked-in bytes or it does not
// (DESIGN.md §20). An improvement fails exactly like a regression — the file
// is refreshed with `make bench-baseline` and the diff reviewed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Suite is one deterministic benchmark whose snapshot is checked in.
type Suite struct {
	Name string // the -suite value
	File string // checked-in snapshot at the repository root

	// Measure runs the suite and returns its typed snapshot plus the table
	// shown to the operator.
	Measure func() (snapshot any, t *Table, err error)

	// Check, when set, is the suite's baseline-free contract: one line per
	// violation in a snapshot Measure returned.
	Check func(snapshot any) []string
}

// Suites lists every gated snapshot; `make bench-gate`, `make bench-baseline`
// and the package test range over the same names.
var Suites = []Suite{
	{Name: "datapath", File: "BENCH_datapath.json",
		Measure: func() (any, *Table, error) { return Datapath() }},
	{Name: "cluster", File: "BENCH_cluster.json",
		Measure: func() (any, *Table, error) { return ClusterBench() }},
	{Name: "sched", File: "BENCH_sched.json",
		Measure: func() (any, *Table, error) { return SchedBench() },
		Check:   func(s any) []string { return checkSched(s.(*SchedSnapshot)) }},
	{Name: "vi", File: "BENCH_vi.json",
		Measure: func() (any, *Table, error) { return VIBench() },
		Check:   func(s any) []string { return checkVI(s.(*VISnapshot)) }},
}

// Run measures the suite and enforces its contract. A measurement that
// violates Check comes back as an error without a snapshot (the table still
// does, for diagnosis), so it can be neither written nor gated clean.
func (s Suite) Run() (snapshot any, t *Table, err error) {
	snapshot, t, err = s.Measure()
	if err != nil {
		return nil, nil, fmt.Errorf("%s suite: %v", s.Name, err)
	}
	if s.Check != nil {
		if fails := s.Check(snapshot); len(fails) > 0 {
			return nil, t, fmt.Errorf("%s suite violates its contract:\n  %s", s.Name, strings.Join(fails, "\n  "))
		}
	}
	return snapshot, t, nil
}

// Render is the one serialisation of a snapshot: the bytes -snapshot writes
// and the bytes Gate compares.
func Render(snapshot any) ([]byte, error) {
	b, err := json.MarshalIndent(snapshot, "", "  ")
	return append(b, '\n'), err
}

// Gate renders the fresh measurement and compares it byte for byte with the
// checked-in file. On a mismatch the error shows each differing line as
// checked in (-) and as measured (+).
func Gate(snapshot any, path string) error {
	now, err := Render(snapshot)
	if err != nil {
		return err
	}
	was, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %v", err)
	}
	if bytes.Equal(was, now) {
		return nil
	}
	w, n := strings.Split(string(was), "\n"), strings.Split(string(now), "\n")
	var diff strings.Builder
	for i := 0; i < len(w) && i < len(n); i++ {
		if w[i] != n[i] {
			fmt.Fprintf(&diff, "line %d:\n  - %s\n  + %s\n", i+1, w[i], n[i])
			if len(w) != len(n) {
				break // the lines below are shifted, not changed
			}
		}
	}
	if len(w) != len(n) {
		diff.WriteString("line counts differ: keys or rows were added or removed\n")
	}
	return fmt.Errorf("%s differs from the fresh measurement (- checked in, + measured):\n%severy number in it is deterministic, so this is a behaviour change, better or worse: run `make bench-baseline` and commit if intended",
		path, diff.String())
}
