package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The declarations must fit the shape the benchmark driver accepts.
func TestDeclarationsFitTheContract(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) > 200 || bytes.ContainsRune([]byte(w.why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		check("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("per-layer metric %s does not say what it should move", m.Name)
		}
	}
}

// BENCHMARK.json at the repo root is the rendered form of the declarations.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the harness's declarations; regenerate it with: go run . -manifest > ../BENCHMARK.json")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}
}

// Every workload, at smoke sizes, once untraced and once traced at the same
// seed: every declared metric comes out exactly once and is a number, no op
// fails, the exact end-to-end metrics are identical between the two runs (so
// tracing does not touch what is simulated), and every per-layer metric is
// measured by at least one workload.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all seven workloads")
	}
	measured := map[string]bool{}
	for i := range workloads {
		w := &workloads[i]
		base := env{name: w.name, seed: 7, seconds: 0.05, sz: smokeSizes(), outDir: t.TempDir()}

		plain, err := w.run(&base)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced := base
		traced.rec = newRecorder(1 << 16)
		res, err := w.run(&traced)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, r := range []*result{plain, res} {
			if r.failed != 0 || r.attempted < 1 {
				t.Errorf("%s: %d of %d ops failed: %v", w.name, r.failed, r.attempted, r.failMsgs)
			}
		}

		a, b := endToEndValues(plain), endToEndValues(res)
		if len(a) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end values for %d declared metrics", w.name, len(a), len(endToEnd))
		}
		for _, m := range endToEnd {
			v, ok := a[m.Name]
			if !ok || v.Unit != m.Unit || v.Value == 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %+v (present %v), want a non-zero number in %s", w.name, m.Name, v, ok, m.Unit)
			}
			if m.Exact && v.Value != b[m.Name].Value {
				t.Errorf("%s: exact metric %s differs between two runs at one seed: %v vs %v", w.name, m.Name, v.Value, b[m.Name].Value)
			}
		}

		layers := perLayerValues(res)
		for name := range res.layer {
			measured[name] = true
		}
		if len(layers) != len(perLayer) {
			t.Errorf("%s: %d per-layer values for %d declared metrics", w.name, len(layers), len(perLayer))
		}
		for name, v := range layers {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v", w.name, name, v.Value)
			}
		}
		if err := writeTrace(&traced, w.name, res, io.Discard); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if len(traced.rec.shares()) == 0 {
			t.Errorf("%s: the traced pass recorded no spans", w.name)
		}
	}
	for _, m := range perLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", m.Name)
		}
	}
	for name := range measured {
		found := false
		for _, m := range perLayer {
			found = found || m.Name == name
		}
		if !found {
			t.Errorf("a workload measures %s, which is not declared", name)
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{Layer: "harness", Name: "setup", StartNs: 0, EndNs: 50, Parent: -1},
		{Layer: "harness", Name: "pass", StartNs: 100, EndNs: 800, Parent: -1},
		{Layer: "core", Name: "outer", StartNs: 200, EndNs: 700, Parent: 1},
		{Layer: "accel", Name: "inner", StartNs: 300, EndNs: 600, Parent: 2},
		{Layer: "golden", Name: "outside the pass", StartNs: 900, EndNs: 950, Parent: -1},
	}}
	got := map[string]float64{}
	for _, s := range r.shares() {
		got[s.Layer] = s.Ms * 1e6
	}
	if len(got) != 2 || math.Abs(got["accel"]-300) > 1e-6 || math.Abs(got["core"]-200) > 1e-6 {
		t.Errorf("self times %v, want accel 300 ns and core 200 ns and nothing from outside the pass", got)
	}
}

func TestQuantileIsAnOrderStatistic(t *testing.T) {
	v := make([]uint64, 100)
	for i := range v {
		v[i] = uint64(100 - i) // 1..100, unsorted
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 1: 100, 0.001: 1} {
		if got := quantile(v, q); got != want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
