package isa_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"inca/internal/isa"
)

func sampleProgram() *isa.Program {
	return &isa.Program{
		Name:   "sample",
		ParaIn: 16, ParaOut: 16, ParaHeight: 8,
		Layers: []isa.LayerInfo{{
			Op: isa.LayerConv, Name: "conv1",
			InC: 3, InH: 32, InW: 32, OutC: 16, OutH: 32, OutW: 32,
			KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 1, Shift: 9, ReLU: true,
			InAddr: 0, OutAddr: 4096, WAddr: 65536, NIn: 1, NOut: 1, NTiles: 4,
		}},
		Instrs: []isa.Instruction{
			{Op: isa.OpLoadD, Layer: 0, Rows: 10, Len: 960},
			{Op: isa.OpLoadW, Layer: 0, Len: 496, Addr: 65536},
			{Op: isa.OpCalcF, Layer: 0, Rows: 8, SaveID: 1},
			{Op: isa.OpVirSave, Layer: 0, Rows: 8, SaveID: 1, Len: 4096},
			{Op: isa.OpVirLoadD, Layer: 0, Rows: 10, Len: 960},
			{Op: isa.OpSave, Layer: 0, OutG: 0, Rows: 8, SaveID: 1, Len: 4096, Addr: 4096},
			{Op: isa.OpEnd},
		},
		DDRBytes:    1 << 20,
		Weights:     []byte{1, 0xfe, 3, 0xfc}, // int8 1, -2, 3, -4
		WeightsAddr: 65536,
		InputAddr:   0, InputBytes: 3072,
		OutputAddr: 4096, OutputBytes: 16384,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := sampleProgram()
	var buf bytes.Buffer
	if err := isa.Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := isa.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", p, q)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := isa.Decode(bytes.NewReader([]byte("NOTINCA"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncated stream.
	p := sampleProgram()
	var buf bytes.Buffer
	if err := isa.Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := isa.Decode(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// Property: encode→decode is the identity for randomized instruction streams.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(nInstr uint8, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := sampleProgram()
		p.Instrs = nil
		n := int(nInstr%64) + 1
		for i := 0; i < n; i++ {
			p.Instrs = append(p.Instrs, isa.Instruction{
				Op:     isa.Op(r.Intn(7)),
				Which:  uint8(r.Intn(2)),
				Layer:  0,
				InG:    uint16(r.Intn(1 << 16)),
				OutG:   uint16(r.Intn(1 << 16)),
				Row0:   uint16(r.Intn(1 << 16)),
				Rows:   uint16(r.Intn(1 << 16)),
				Tile:   uint16(r.Intn(1 << 16)),
				SaveID: r.Uint32(),
				Addr:   r.Uint32(),
				Len:    r.Uint32(),
			})
		}
		p.Instrs = append(p.Instrs, isa.Instruction{Op: isa.OpEnd})
		var buf bytes.Buffer
		if err := isa.Encode(&buf, p); err != nil {
			return false
		}
		q, err := isa.Decode(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	p := sampleProgram()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	cases := map[string]func(*isa.Program){
		"missing end":    func(p *isa.Program) { p.Instrs = p.Instrs[:len(p.Instrs)-1] },
		"early end":      func(p *isa.Program) { p.Instrs[0] = isa.Instruction{Op: isa.OpEnd} },
		"bad layer ref":  func(p *isa.Program) { p.Instrs[0].Layer = 9 },
		"rows overflow":  func(p *isa.Program) { p.Instrs[2].Row0 = 30; p.Instrs[2].Rows = 8 },
		"bad para":       func(p *isa.Program) { p.ParaIn = 0 },
		"invalid opcode": func(p *isa.Program) { p.Instrs[0].Op = isa.Op(200) },
	}
	for name, mut := range cases {
		p := sampleProgram()
		mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestStripVirtualAndPoints(t *testing.T) {
	p := sampleProgram()
	stripped := p.StripVirtual()
	for _, in := range stripped {
		if in.Op.Virtual() {
			t.Fatalf("virtual op %v survived strip", in.Op)
		}
	}
	if len(stripped) != len(p.Instrs)-2 {
		t.Fatalf("stripped %d of %d", len(stripped), len(p.Instrs))
	}
	pts := p.InterruptPoints()
	if len(pts) != 1 || p.Instrs[pts[0]].Op != isa.OpVirSave {
		t.Fatalf("interrupt points = %v", pts)
	}
	for i := range p.Instrs {
		if p.IsLayerBoundary(i) {
			t.Fatalf("single-layer program has a layer boundary at %d", i)
		}
	}
}

func TestConvRowsAndConvW(t *testing.T) {
	l := &isa.LayerInfo{OutW: 10, FusedPool: 2}
	c0, cn := l.ConvRows(3, 4)
	if c0 != 6 || cn != 8 {
		t.Fatalf("ConvRows fused = (%d,%d)", c0, cn)
	}
	if l.ConvW() != 20 {
		t.Fatalf("ConvW fused = %d", l.ConvW())
	}
	l.FusedPool = 0
	c0, cn = l.ConvRows(3, 4)
	if c0 != 3 || cn != 4 || l.ConvW() != 10 {
		t.Fatal("plain ConvRows/ConvW wrong")
	}
}
