package bench

import (
	"math"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/cost"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
)

func compileVI(t *testing.T, cfg accel.Config, g *model.Network) *isa.Program {
	t.Helper()
	p, err := compileNet(cfg, g, compiler.VIEvery{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// probeSetup compiles the latency probe and times the victim alone.
func probeSetup(t *testing.T, cfg accel.Config, victim *isa.Program) (probe *isa.Program, total uint64) {
	t.Helper()
	probe, err := tinyPreemptor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total, err = execCycles(cfg, victim)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("victim has zero duration")
	}
	return probe, total
}

// TestTheoreticalRlWorkedExample checks Eq. (1) against the paper's §4.3
// worked example: 80x60 featuremap, 48->32 channels, Para=(8,8,4) gives
// R_l = 8*4/(32*60) ≈ 1.7 %.
func TestTheoreticalRlWorkedExample(t *testing.T) {
	cfg := accel.Small()
	g := model.NewMediumLayerNet()
	specs, err := g.ConvSpecs()
	if err != nil {
		t.Fatal(err)
	}
	rl := theoreticalRl(cfg, specs[0])
	if math.Abs(rl-8.0*4.0/(32.0*60.0)) > 1e-12 {
		t.Fatalf("R_l = %v, want 8*4/(32*60)", rl)
	}
	if rl < 0.016 || rl > 0.018 {
		t.Fatalf("R_l = %.4f, want ≈ 1.7%%", rl)
	}
	mr := measuredRl(cfg, specs[0])
	if math.Abs(mr-rl)/rl > 0.10 {
		t.Fatalf("cycle-model R_l %.5f deviates >10%% from theory %.5f", mr, rl)
	}
	// Doubling the output channels doubles the layer-by-layer wait and
	// leaves the VI wait alone: R_l halves, as Eq. (1) says.
	wide := specs[0]
	wide.OutC *= 2
	if got, want := worstWaitLayerByLayer(cfg, wide), 2*worstWaitLayerByLayer(cfg, specs[0]); got != want {
		t.Fatalf("layer-by-layer wait %d cycles at 2x channels, want %d", got, want)
	}
	if got, want := worstWaitVI(cfg, wide), worstWaitVI(cfg, specs[0]); got != want {
		t.Fatalf("VI wait %d cycles at 2x channels, want unchanged %d", got, want)
	}
}

// TestMeasuredOrdering verifies the qualitative result of Fig. 5(a): the VI
// method's response latency is far below layer-by-layer's, layer-by-layer
// has zero extra cost, and CPU-like pays the largest cost.
func TestMeasuredOrdering(t *testing.T) {
	cfg := accel.Big()
	victim := compileVI(t, cfg, model.NewVGG16(3, 120, 160))
	probe, total := probeSetup(t, cfg, victim)
	sums := make(map[iau.Policy]uint64)
	n := 0
	for i := 1; i <= 5; i++ {
		req := total * uint64(i) / 6
		results := make(map[iau.Policy]Measurement)
		for _, pol := range []iau.Policy{iau.PolicyCPULike, iau.PolicyLayerByLayer, iau.PolicyVI} {
			m, err := measureAt(cfg, pol, victim, probe, req)
			if err != nil {
				t.Fatalf("%v: %v", pol, err)
			}
			if !m.Preempted {
				t.Fatalf("%v: request at %d did not preempt (total %d)", pol, req, total)
			}
			results[pol] = m
		}
		vi := results[iau.PolicyVI]
		lbl := results[iau.PolicyLayerByLayer]
		cpu := results[iau.PolicyCPULike]
		if lbl.CostCycles != 0 {
			t.Errorf("pos %d: layer-by-layer extra cost = %d, want 0", i, lbl.CostCycles)
		}
		if cpu.CostCycles <= vi.CostCycles {
			t.Errorf("pos %d: CPU-like cost %d should exceed VI cost %d", i, cpu.CostCycles, vi.CostCycles)
		}
		if cpu.BackupBytes != uint64(cfg.TotalBufferBytes()) {
			t.Errorf("pos %d: CPU-like backup %d bytes, want full caches %d", i, cpu.BackupBytes, cfg.TotalBufferBytes())
		}
		for pol, m := range results {
			sums[pol] += m.LatencyCycles
		}
		n++
	}
	// At this reduced image scale the paper's 50x gap shrinks, but the VI
	// method must still average several times better than layer-by-layer.
	if sums[iau.PolicyVI]*3 > sums[iau.PolicyLayerByLayer] {
		t.Errorf("avg VI latency %d not well below layer-by-layer %d",
			sums[iau.PolicyVI]/uint64(n), sums[iau.PolicyLayerByLayer]/uint64(n))
	}
}

// TestWorstWaitBound: measured VI response latency never exceeds the
// analytical worst case (one CalcBlob + backup) by more than the transfer
// granularity, across several request positions.
func TestWorstWaitBound(t *testing.T) {
	cfg := accel.Big()
	g := model.NewVGG16(3, 60, 80)
	victim := compileVI(t, cfg, g)
	probe, total := probeSetup(t, cfg, victim)
	specs, err := g.ConvSpecs()
	if err != nil {
		t.Fatal(err)
	}
	// Global analytical bound: worst blob across layers + worst backup +
	// one SAVE (a request can also land just before a tile's SAVE) + LOAD_W.
	var bound uint64
	for _, s := range specs {
		w := worstWaitVI(cfg, s) + backupCyclesVI(cfg, s)
		rows := cfg.ParaHeight
		w += cfg.XferCycles(uint32(s.OutC * rows * s.OutW)) // tile SAVE
		icg := s.InC / s.Groups
		w += cfg.XferCycles(uint32(cfg.ParaOut*4 + cfg.ParaOut*icg*s.KH*s.KW))
		w += cfg.XferCycles(uint32(s.InC * ((rows-1)*s.Stride + s.KH) * s.InW)) // tile LOAD_D
		bound = max(bound, w)
	}
	for i := 1; i <= 9; i++ {
		m, err := measureAt(cfg, iau.PolicyVI, victim, probe, total*uint64(i)/10)
		if err != nil {
			t.Fatal(err)
		}
		if m.Preempted && m.LatencyCycles > bound {
			t.Errorf("position %d/10: latency %d exceeds analytical bound %d (layer %s)", i, m.LatencyCycles, bound, m.VictimLayer)
		}
	}
}

func TestWorstWaitsPerNetwork(t *testing.T) {
	cfg := accel.Big()
	st, err := worstWaits(cfg, model.NewVGG16(3, 120, 160))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.LayerName) != 13 || len(st.LayerVI) != 13 || len(st.LayerLBL) != 13 {
		t.Fatalf("per-layer series length %d/%d/%d, want 13", len(st.LayerName), len(st.LayerVI), len(st.LayerLBL))
	}
	for i := range st.LayerVI {
		if st.LayerVI[i] >= st.LayerLBL[i] {
			t.Errorf("layer %s: VI wait %d not below layer-by-layer %d", st.LayerName[i], st.LayerVI[i], st.LayerLBL[i])
		}
	}
	// A network with no conv layers must error.
	empty := model.New("empty", 3, 8, 8)
	empty.MaxPool("p", 0, 2, 2)
	if _, err := worstWaits(cfg, empty); err == nil {
		t.Error("conv-free network accepted")
	}
}

func TestMeasurementUnitConversions(t *testing.T) {
	cfg := accel.Big() // 300 MHz
	m := Measurement{LatencyCycles: 300, CostCycles: 600}
	if got := m.LatencyMicros(cfg); got != 1.0 {
		t.Errorf("latency %v us, want 1", got)
	}
	if got := m.CostMicros(cfg); got != 2.0 {
		t.Errorf("cost %v us, want 2", got)
	}
}

// TestWorstGapBoundsMeasurements: the stream-level uninterruptible gap must
// upper-bound every measured VI response latency, and stay within a small
// factor of the per-layer analytical bound (they model the same thing at
// different granularities).
func TestWorstGapBoundsMeasurements(t *testing.T) {
	cfg := accel.Big()
	g := model.NewVGG16(3, 60, 80)
	victim := compileVI(t, cfg, g)
	gap := cost.Summarize(victim, cfg).WorstPointGap()
	if gap == 0 {
		t.Fatal("zero gap on a real program")
	}
	probe, total := probeSetup(t, cfg, victim)
	for i := 1; i <= 8; i++ {
		m, err := measureAt(cfg, iau.PolicyVI, victim, probe, total*uint64(i)/9)
		if err != nil {
			t.Fatal(err)
		}
		if m.Preempted && m.LatencyCycles > gap {
			t.Errorf("measured VI latency %d exceeds the stream gap bound %d", m.LatencyCycles, gap)
		}
	}
	// Agreement with the per-layer analytical worst (one blob + backup +
	// tile transfers): within 4x either way.
	var analytic uint64
	specs, err := g.ConvSpecs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		analytic = max(analytic, worstWaitVI(cfg, s)+backupCyclesVI(cfg, s))
	}
	if gap > 4*analytic || analytic > 4*gap {
		t.Errorf("stream gap %d and analytical bound %d disagree by >4x", gap, analytic)
	}
}

// TestNonPreemptingRequest: a request landing after the victim completes
// reports Preempted=false rather than an error.
func TestNonPreemptingRequest(t *testing.T) {
	cfg := accel.Big()
	victim := compileVI(t, cfg, model.NewTinyCNN(3, 16, 16))
	probe, total := probeSetup(t, cfg, victim)
	m, err := measureAt(cfg, iau.PolicyVI, victim, probe, total*10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Preempted {
		t.Fatal("request after completion reported as preempting")
	}
}
