package bench

import (
	"bytes"
	"math"
	"testing"
)

// TestDatapathMeasuresSuite runs the real measurement once and
// checks the invariants the snapshot is supposed to certify: every kernel in
// the fixed suite is present, the modeled numbers are positive and
// deterministic-speedup-consistent, and the weight-bound dense3x3 kernel
// clears the 2.5x amortization target the batched scheduler exists for.
func TestDatapathMeasuresSuite(t *testing.T) {
	snap, table, err := Datapath()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Batch != DatapathBatch {
		t.Fatalf("snapshot header batch=%d", snap.Batch)
	}
	want := map[string]bool{"dense3x3": false, "pointwise1x1": false, "generic5x5": false, "resfused": false}
	for _, k := range snap.Kernels {
		if _, ok := want[k.Kernel]; !ok {
			t.Errorf("unexpected kernel %q", k.Kernel)
			continue
		}
		want[k.Kernel] = true
		if k.ModelGMACsB1 <= 0 || k.ModelGMACsB8 <= 0 {
			t.Errorf("%s: non-positive throughput %+v", k.Kernel, k)
		}
		if ratio := k.ModelGMACsB8 / k.ModelGMACsB1; math.Abs(ratio-k.ModelSpeedup) > 1e-9 {
			t.Errorf("%s: speedup %.6f inconsistent with ratio %.6f", k.Kernel, k.ModelSpeedup, ratio)
		}
		if k.FetchCyclesPerElemB8 >= k.FetchCyclesPerElemB1 {
			t.Errorf("%s: fetch cycles/elem did not drop (%.0f -> %.0f)",
				k.Kernel, k.FetchCyclesPerElemB1, k.FetchCyclesPerElemB8)
		}
		if k.Kernel == "dense3x3" && k.ModelSpeedup < 2.5 {
			t.Errorf("dense3x3 modeled speedup %.2fx, want >= 2.5x", k.ModelSpeedup)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("kernel %q missing from snapshot", name)
		}
	}
	if table == nil || len(table.Rows) != len(snap.Kernels) {
		t.Fatalf("table rows do not match snapshot kernels")
	}
}

// TestDatapathModeledDeterministic: two measurements in one process render
// to the same bytes. TestGateAgainstCheckedInBaseline also fails on
// nondeterminism, but cannot tell it from a stale file; this one can.
func TestDatapathModeledDeterministic(t *testing.T) {
	var renders [2][]byte
	for i := range renders {
		snap, _, err := Datapath()
		if err != nil {
			t.Fatal(err)
		}
		if renders[i], err = Render(snap); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(renders[0], renders[1]) {
		t.Fatalf("snapshot differs across runs:\n%s\nvs\n%s", renders[0], renders[1])
	}
}
