package accel_test

import (
	"reflect"
	"strings"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/tensor"
)

func buildProgram(t *testing.T, g *model.Network, cfg accel.Config) *isa.Program {
	t.Helper()
	q, err := quant.Synthesize(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	opt.EmitWeights = true
	p, err := compiler.Compile(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	if err := accel.Big().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := accel.Big()
	bad.FreqMHz = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero frequency accepted")
	}
	bad = accel.Big()
	bad.ParaIn = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	bad = accel.Big()
	bad.DDRBandwidthGBps = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

func TestXferCycles(t *testing.T) {
	cfg := accel.Big()
	if cfg.XferCycles(0) != 0 {
		t.Fatal("zero-length transfer costs cycles")
	}
	// 6.4 GB/s at 300 MHz is ~21.3 B/cycle.
	c := cfg.XferCycles(21333)
	if c < 900 || c > 1200 {
		t.Fatalf("21333 B = %d cycles, want ~1000+setup", c)
	}
	// Monotone in length.
	if cfg.XferCycles(100) > cfg.XferCycles(200) {
		t.Fatal("transfer cycles not monotone")
	}
}

func TestCycleTimeConversions(t *testing.T) {
	cfg := accel.Big()
	if got := cfg.CyclesToMicros(300); got != 1.0 {
		t.Fatalf("300 cycles at 300MHz = %v us", got)
	}
	if got := cfg.SecondsToCycles(1.0); got != 300e6 {
		t.Fatalf("1s = %d cycles", got)
	}
}

// TestEngineDetectsMissingRestore: executing a stream that resumes without
// its Vir_LOAD_D must fail the resident-window check — the property that
// makes the functional engine a real test of VI-pass correctness.
func TestEngineDetectsMissingRestore(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3
	p := buildProgram(t, model.NewTinyCNN(3, 12, 16), cfg)
	arena, err := accel.NewArena(p)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.NewInt8(3, 12, 16)
	tensor.FillPattern(in, 1)
	if err := accel.WriteInputAt(arena, p, in, 0); err != nil {
		t.Fatal(err)
	}
	eng := accel.NewEngine(cfg)
	// Run normally until the middle of a layer, then simulate a task switch
	// (invalidate) WITHOUT executing the virtual restores, and continue.
	half := len(p.Instrs) / 2
	for i := 0; i < half; i++ {
		inr := p.Instrs[i]
		if inr.Op.Virtual() {
			continue
		}
		if _, err := eng.Exec(arena, p, inr, 0); err != nil {
			t.Fatalf("setup exec %d: %v", i, err)
		}
	}
	eng.Invalidate()
	var fail error
	for i := half; i < len(p.Instrs) && fail == nil; i++ {
		inr := p.Instrs[i]
		if inr.Op.Virtual() || inr.Op == isa.OpEnd {
			continue
		}
		_, fail = eng.Exec(arena, p, inr, 0)
	}
	if fail == nil {
		t.Fatal("engine silently accepted execution after losing on-chip state")
	}
	if !strings.Contains(fail.Error(), "not resident") &&
		!strings.Contains(fail.Error(), "not loaded") &&
		!strings.Contains(fail.Error(), "mismatch") &&
		!strings.Contains(fail.Error(), "finals") {
		t.Fatalf("unexpected failure mode: %v", fail)
	}
}

func TestSnapshotRestore(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3
	p := buildProgram(t, model.NewTinyCNN(3, 12, 16), cfg)
	arena, err := accel.NewArena(p)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.NewInt8(3, 12, 16)
	tensor.FillPattern(in, 1)
	if err := accel.WriteInputAt(arena, p, in, 0); err != nil {
		t.Fatal(err)
	}
	run := func(snapshotAt int) *tensor.Int8 {
		a := make([]byte, len(arena))
		copy(a, arena)
		eng := accel.NewEngine(cfg)
		for i, inr := range p.Instrs {
			if inr.Op.Virtual() || inr.Op == isa.OpEnd {
				continue
			}
			if i == snapshotAt {
				s := eng.Snapshot()
				eng.Invalidate()
				eng.Restore(s)
			}
			if _, err := eng.Exec(a, p, inr, 0); err != nil {
				t.Fatalf("exec %d: %v", i, err)
			}
		}
		out, err := accel.ReadOutputAt(a, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := run(-1)
	// Snapshot/restore at several positions must be fully transparent.
	for _, at := range []int{3, len(p.Instrs) / 2, len(p.Instrs) - 3} {
		if !reflect.DeepEqual(run(at), base) {
			t.Fatalf("snapshot/restore at %d changed the output", at)
		}
	}
}

func TestArenaErrors(t *testing.T) {
	cfg := accel.Big()
	q, err := quant.Synthesize(model.NewTinyCNN(3, 12, 16), 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := cfg.CompilerOptions()
	p, err := compiler.Compile(q, opt) // no weights
	if err != nil {
		t.Fatal(err)
	}
	if _, err := accel.NewArena(p); err == nil {
		t.Fatal("arena built without weight image")
	}
}

func TestResourceEstimates(t *testing.T) {
	cfg := accel.Big()
	acc := cfg.AcceleratorResources()
	iau := cfg.IAUResources()
	board := accel.ZU9Board()
	if acc.DSP != 1282 {
		t.Errorf("accelerator DSP = %d, want 1282 (calibration)", acc.DSP)
	}
	if iau.DSP != 0 {
		t.Errorf("IAU uses %d DSPs, want 0", iau.DSP)
	}
	if iau.LUT*10 > acc.LUT {
		t.Errorf("IAU LUTs (%d) not small vs accelerator (%d)", iau.LUT, acc.LUT)
	}
	var total accel.Resources
	for _, r := range []accel.Resources{acc, iau, cfg.FEPostResources()} {
		total.DSP, total.LUT, total.FF, total.BRAM = total.DSP+r.DSP, total.LUT+r.LUT, total.FF+r.FF, total.BRAM+r.BRAM
	}
	if total.DSP > board.DSP || total.LUT > board.LUT || total.FF > board.FF || total.BRAM > board.BRAM {
		t.Errorf("design does not fit the board: %v vs %v", total, board)
	}
}

// TestOverlapModel: transfers issued after compute are discounted, the
// discount is bounded by PrefetchBytes, and DrainPipeline removes it.
func TestOverlapModel(t *testing.T) {
	cfg := accel.Big()
	eng := accel.NewEngine(cfg)
	p := &isa.Program{
		ParaIn: cfg.ParaIn, ParaOut: cfg.ParaOut, ParaHeight: cfg.ParaHeight,
		Layers: []isa.LayerInfo{{
			Op: isa.LayerConv, InC: 16, InH: 64, InW: 64,
			OutC: 16, OutH: 64, OutW: 64, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 1,
			NIn: 1, NOut: 1, NTiles: 8,
		}},
		Instrs: []isa.Instruction{{Op: isa.OpEnd}},
	}
	calc := isa.Instruction{Op: isa.OpCalcI, Layer: 0, Rows: 8}
	load := isa.Instruction{Op: isa.OpLoadD, Layer: 0, Rows: 8, Len: 40960}

	full, err := eng.Exec(nil, p, load, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(nil, p, calc, 0); err != nil {
		t.Fatal(err)
	}
	discounted, err := eng.Exec(nil, p, load, 0)
	if err != nil {
		t.Fatal(err)
	}
	if discounted >= full {
		t.Fatalf("transfer after compute not discounted: %d vs %d", discounted, full)
	}
	if discounted < uint64(cfg.XferSetupCycles) {
		t.Fatalf("discount below the DMA setup floor: %d", discounted)
	}
	eng.DrainPipeline()
	again, err := eng.Exec(nil, p, load, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again != full {
		t.Fatalf("after drain transfer = %d, want full %d", again, full)
	}
}
