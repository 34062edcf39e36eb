package compiler_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"inca/internal/compiler"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
)

// bigAccel is the paper's large Angel-Eye parallelism (16, 16, 8) with no
// cost model and no self-check.
func bigAccel() compiler.Options { return compiler.Options{ParaIn: 16, ParaOut: 16, ParaHeight: 8} }

func compile(t *testing.T, g *model.Network, opt compiler.Options) *isa.Program {
	t.Helper()
	q, err := quant.Synthesize(g, 11)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStripVirtualEqualsPlainCompile(t *testing.T) {
	// The VI pass must be purely additive: removing the virtual
	// instructions recovers the original stream exactly.
	for _, g := range []*model.Network{
		model.NewTinyCNN(3, 24, 32),
		model.NewResNetTiny(),
		model.NewMobileNetTiny(),
		model.NewPoolNet(),
	} {
		opt := bigAccel()
		opt.BlobsPerSave = 2
		plain := compile(t, g, opt)
		opt.VI = compiler.VIEvery{}
		vi := compile(t, g, opt)
		stripped := vi.StripVirtual()
		if len(stripped) != len(plain.Instrs) {
			t.Fatalf("%s: stripped %d instrs, plain %d", g.Name, len(stripped), len(plain.Instrs))
		}
		for i := range stripped {
			if stripped[i] != plain.Instrs[i] {
				t.Fatalf("%s: instr %d differs: %v vs %v", g.Name, i, stripped[i], plain.Instrs[i])
			}
		}
	}
}

// TestVIPassPositions verifies §4.3's placement rule on the emitted stream:
// every CALC_F is followed by either its SAVE or a Vir_SAVE; every SAVE is
// followed by a Vir_LOAD_D (or ends the program); virtual instructions
// appear nowhere else.
func TestVIPassPositions(t *testing.T) {
	opt := bigAccel()
	opt.VI = compiler.VIEvery{}
	opt.BlobsPerSave = 2
	p := compile(t, model.NewResNetTiny(), opt)
	ins := p.Instrs
	for i, in := range ins {
		switch in.Op {
		case isa.OpCalcF:
			next := ins[i+1].Op
			if next != isa.OpSave && next != isa.OpVirSave {
				t.Fatalf("instr %d: CALC_F followed by %v", i, next)
			}
		case isa.OpSave:
			next := ins[i+1].Op
			if next != isa.OpVirLoadD && next != isa.OpEnd {
				t.Fatalf("instr %d: SAVE followed by %v", i, next)
			}
		case isa.OpVirSave:
			if ins[i+1].Op != isa.OpVirLoadD {
				t.Fatalf("instr %d: Vir_SAVE not followed by Vir_LOAD_D", i)
			}
			if i == 0 || ins[i-1].Op != isa.OpCalcF {
				t.Fatalf("instr %d: Vir_SAVE not preceded by CALC_F", i)
			}
			if ins[i-1].SaveID != in.SaveID {
				t.Fatalf("instr %d: Vir_SAVE SaveID %d != CALC_F SaveID %d", i, in.SaveID, ins[i-1].SaveID)
			}
		case isa.OpVirLoadD:
			prev := ins[i-1].Op
			if prev != isa.OpVirSave && prev != isa.OpSave && prev != isa.OpVirLoadD {
				t.Fatalf("instr %d: Vir_LOAD_D preceded by %v", i, prev)
			}
		}
	}
}

// TestCalcBlobStructure checks the §4.1 grouping: within each blob all
// CALC_I precede the single CALC_F, and each blob of a conv layer begins
// with its LOAD_W.
func TestCalcBlobStructure(t *testing.T) {
	opt := compiler.Options{ParaIn: 8, ParaOut: 8, ParaHeight: 4}
	p := compile(t, model.NewTinyCNN(3, 24, 32), opt)
	ins := p.Instrs
	for i, in := range ins {
		if in.Op != isa.OpCalcI && in.Op != isa.OpCalcF {
			continue
		}
		l := &p.Layers[in.Layer]
		if l.Op != isa.LayerConv {
			continue
		}
		if in.InG == 0 {
			// First CALC of the blob: must be preceded by LOAD_W of its
			// out-group.
			if ins[i-1].Op != isa.OpLoadW || ins[i-1].OutG != in.OutG {
				t.Fatalf("instr %d: blob does not start with LOAD_W(og=%d): prev %v", i, in.OutG, ins[i-1])
			}
		}
		if in.Op == isa.OpCalcI {
			next := ins[i+1]
			if (next.Op != isa.OpCalcI && next.Op != isa.OpCalcF) || next.InG != in.InG+1 {
				t.Fatalf("instr %d: CALC_I not followed by next in-group CALC: %v", i, next)
			}
		}
	}
}

// TestSaveCoverage: across each layer, SAVE instructions cover every output
// channel of every tile exactly once.
func TestSaveCoverage(t *testing.T) {
	for _, bps := range []int{1, 2, 3, 0} {
		opt := bigAccel()
		opt.ParaIn, opt.ParaOut, opt.ParaHeight = 4, 4, 3
		opt.BlobsPerSave = bps
		p := compile(t, model.NewResNetTiny(), opt)
		type key struct {
			layer uint16
			tile  uint16
		}
		bytesSaved := make(map[key]uint32)
		for _, in := range p.Instrs {
			if in.Op != isa.OpSave {
				continue
			}
			bytesSaved[key{in.Layer, in.Tile}] += in.Len
		}
		for li := range p.Layers {
			l := &p.Layers[li]
			for tile := 0; tile < l.NTiles; tile++ {
				row0 := tile * p.ParaHeight
				rows := l.OutH - row0
				if rows > p.ParaHeight {
					rows = p.ParaHeight
				}
				want := uint32(l.OutC * rows * l.OutW)
				got := bytesSaved[key{uint16(li), uint16(tile)}]
				if got != want {
					t.Fatalf("bps=%d layer %s tile %d: saved %d bytes, want %d", bps, l.Name, tile, got, want)
				}
			}
		}
	}
}

// TestLoadCoverage: LOAD_D row ranges of each layer cover the full input
// height without gaps (delta loads chain correctly).
func TestLoadCoverage(t *testing.T) {
	opt := bigAccel()
	opt.ParaIn, opt.ParaOut, opt.ParaHeight = 4, 4, 3
	p := compile(t, model.NewResNetTiny(), opt)
	covered := make(map[uint16]map[int]bool)
	for _, in := range p.Instrs {
		if in.Op != isa.OpLoadD || in.Which != 0 {
			continue
		}
		m := covered[in.Layer]
		if m == nil {
			m = make(map[int]bool)
			covered[in.Layer] = m
		}
		for r := int(in.Row0); r < int(in.Row0)+int(in.Rows); r++ {
			m[r] = true
		}
	}
	for li := range p.Layers {
		l := &p.Layers[li]
		// Strided 1x1 layers legitimately skip rows; check only K>=S layers.
		if l.KH < l.Stride {
			continue
		}
		for r := 0; r < l.InH; r++ {
			if !covered[uint16(li)][r] {
				t.Fatalf("layer %s input row %d never loaded", l.Name, r)
			}
		}
	}
}

func TestBufferCheckRejectsTinyBuffers(t *testing.T) {
	opt := bigAccel()
	opt.InputBufBytes = 64
	q, err := quant.Synthesize(model.NewTinyCNN(3, 24, 32), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compiler.Compile(q, opt); err == nil {
		t.Fatal("64-byte input buffer accepted")
	}
}

func TestWeightBlobAddressing(t *testing.T) {
	opt := bigAccel()
	opt.ParaIn, opt.ParaOut, opt.ParaHeight = 4, 4, 3
	opt.EmitWeights = true
	p := compile(t, model.NewTinyCNN(3, 24, 32), opt)
	// Every LOAD_W must land inside the weight image.
	lo := p.WeightsAddr
	hi := p.WeightsAddr + uint32(len(p.Weights))
	for i, in := range p.Instrs {
		if in.Op != isa.OpLoadW {
			continue
		}
		if in.Addr < lo || in.Addr+in.Len > hi {
			t.Fatalf("instr %d: LOAD_W [%d,%d) outside weight image [%d,%d)", i, in.Addr, in.Addr+in.Len, lo, hi)
		}
	}
}

// TestRandomNetworksCompile: arbitrary small conv stacks compile into valid
// programs whose VI pass is sound.
func TestRandomNetworksCompile(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := 1 + r.Intn(6)
		h := 6 + r.Intn(20)
		w := 6 + r.Intn(20)
		g := model.New("rand", c, h, w)
		cur := 0
		layers := 1 + r.Intn(4)
		for i := 0; i < layers; i++ {
			k := []int{1, 3, 5}[r.Intn(3)]
			stride := 1 + r.Intn(2)
			pad := k / 2
			outC := 1 + r.Intn(24)
			shapes, err := g.InferShapes()
			if err != nil {
				return false
			}
			in := shapes[cur]
			if (in.H+2*pad-k)/stride+1 < 1 || (in.W+2*pad-k)/stride+1 < 1 {
				continue
			}
			cur = g.Conv("c", cur, outC, k, stride, pad, r.Intn(2) == 0)
		}
		if specs, _ := g.ConvSpecs(); len(specs) == 0 {
			return true
		}
		q, err := quant.Synthesize(g, uint64(seed))
		if err != nil {
			return false
		}
		opt := compiler.Options{ParaIn: 1 + r.Intn(8), ParaOut: 1 + r.Intn(8), ParaHeight: 1 + r.Intn(6), VI: compiler.VIEvery{}, BlobsPerSave: r.Intn(4)}
		p, err := compiler.Compile(q, opt)
		if err != nil {
			return false
		}
		if p.Validate() != nil {
			return false
		}
		// Every program with more than one CalcBlob or SAVE window has
		// interior interrupt points; a single-blob program legitimately has
		// none (its only boundary is completion).
		ops := make(map[isa.Op]int)
		for _, in := range p.Instrs {
			ops[in.Op]++
		}
		if ops[isa.OpSave] > 1 || ops[isa.OpCalcF] > 1 {
			return len(p.InterruptPoints()) > 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
