package isa_test

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"inca/internal/isa"
)

// allocated returns the bytes f allocates (cumulative, not live). Tests that
// use it must not run in parallel with others.
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestEncodeRejectsOverwideFields: one value too wide for its wire field at a
// time. Each used to wrap silently into an image that decodes to a different
// program; each must now come back as a typed *EncodeError naming the field,
// before a single byte reaches the writer. (NLayers, NInstrs and WeightsLen
// take the same check but would need a 4 GiB slice to trip here.)
func TestEncodeRejectsOverwideFields(t *testing.T) {
	const u8, u16, u32 = math.MaxUint8, math.MaxUint16, math.MaxUint32
	layer := func(set func(l *isa.LayerInfo)) func(p *isa.Program) {
		return func(p *isa.Program) { set(&p.Layers[0]) }
	}
	cases := []struct {
		field string
		max   int64
		value int64
		set   func(p *isa.Program)
	}{
		{"NameLen", u16, u16 + 1, func(p *isa.Program) { p.Name = strings.Repeat("n", u16+1) }},
		{"ParaIn", u16, u16 + 1, func(p *isa.Program) { p.ParaIn = u16 + 1 }},
		{"ParaOut", u16, u16 + 1, func(p *isa.Program) { p.ParaOut = u16 + 1 }},
		{"ParaHeight", u16, u16 + 1, func(p *isa.Program) { p.ParaHeight = u16 + 1 }},
		{"Batch", u16, u16 + 1, func(p *isa.Program) { p.Batch = u16 + 1 }},
		{"Batch", u16, -1, func(p *isa.Program) { p.Batch = -1 }},
		{"Layers[0].NameLen", u16, u16 + 1, layer(func(l *isa.LayerInfo) { l.Name = strings.Repeat("l", u16+1) })},
		{"Layers[0].FusedPool", u8, u8 + 1, layer(func(l *isa.LayerInfo) { l.FusedPool = u8 + 1 })},
		{"Layers[0].KH", u16, u16 + 1, layer(func(l *isa.LayerInfo) { l.KH = u16 + 1 })},
		{"Layers[0].KW", u16, u16 + 1, layer(func(l *isa.LayerInfo) { l.KW = u16 + 1 })},
		{"Layers[0].Stride", u16, u16 + 1, layer(func(l *isa.LayerInfo) { l.Stride = u16 + 1 })},
		{"Layers[0].Pad", u16, u16 + 1, layer(func(l *isa.LayerInfo) { l.Pad = u16 + 1 })},
		{"Layers[0].InC", u32, u32 + 1, layer(func(l *isa.LayerInfo) { l.InC = u32 + 1 })},
		{"Layers[0].InH", u32, u32 + 1, layer(func(l *isa.LayerInfo) { l.InH = u32 + 1 })},
		{"Layers[0].InW", u32, u32 + 1, layer(func(l *isa.LayerInfo) { l.InW = u32 + 1 })},
		{"Layers[0].OutC", u32, u32 + 1, layer(func(l *isa.LayerInfo) { l.OutC = u32 + 1 })},
		{"Layers[0].OutH", u32, u32 + 1, layer(func(l *isa.LayerInfo) { l.OutH = u32 + 1 })},
		{"Layers[0].OutW", u32, u32 + 1, layer(func(l *isa.LayerInfo) { l.OutW = u32 + 1 })},
		{"Layers[0].Groups", u32, -1, layer(func(l *isa.LayerInfo) { l.Groups = -1 })},
		{"Layers[0].NIn", u32, u32 + 1, layer(func(l *isa.LayerInfo) { l.NIn = u32 + 1 })},
		{"Layers[0].NOut", u32, u32 + 1, layer(func(l *isa.LayerInfo) { l.NOut = u32 + 1 })},
		{"Layers[0].NTiles", u32, u32 + 1, layer(func(l *isa.LayerInfo) { l.NTiles = u32 + 1 })},
	}
	for _, tc := range cases {
		p := sampleProgram()
		tc.set(p)
		var out bytes.Buffer
		err := isa.Encode(&out, p)
		var ee *isa.EncodeError
		if !errors.As(err, &ee) {
			t.Errorf("%s = %d: Encode returned %v, want an *isa.EncodeError", tc.field, tc.value, err)
			continue
		}
		if ee.Field != tc.field || ee.Value != tc.value || ee.Max != tc.max {
			t.Errorf("%s = %d: got %+v, want max %d", tc.field, tc.value, *ee, tc.max)
		}
		if out.Len() != 0 {
			t.Errorf("%s = %d: %d bytes reached the writer before the refusal", tc.field, tc.value, out.Len())
		}
	}

	// The widest values that do fit still round-trip.
	p := sampleProgram()
	p.Batch, p.Layers[0].FusedPool, p.Layers[0].KH = u16, u8, u16
	var out bytes.Buffer
	if err := isa.Encode(&out, p); err != nil {
		t.Fatalf("boundary values refused: %v", err)
	}
	q, err := isa.Decode(&out)
	if err != nil {
		t.Fatal(err)
	}
	if q.Batch != u16 || q.Layers[0].FusedPool != u8 || q.Layers[0].KH != u16 {
		t.Errorf("boundary values decoded as batch %d, fusedPool %d, KH %d", q.Batch, q.Layers[0].FusedPool, q.Layers[0].KH)
	}
}

// TestDecodeAllocationBounded: decoding an n-byte image allocates under 3n.
// Decode cannot trust the header's counts, so it grows each slice by
// doubling as records arrive: the discarded smaller slices sum to less than
// twice the final one. (One-element append, which this replaced, grows large
// slices by a quarter at a time and cost over 5n.)
func TestDecodeAllocationBounded(t *testing.T) {
	p := sampleProgram()
	p.Instrs = make([]isa.Instruction, 20000)
	for i := range p.Instrs {
		p.Instrs[i] = isa.Instruction{Op: isa.OpCalcI, SaveID: uint32(i)}
	}
	p.Weights = make([]byte, 3<<20)
	for i := range p.Weights {
		p.Weights[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := isa.Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	var q *isa.Program
	var err error
	got := allocated(func() { q, err = isa.Decode(bytes.NewReader(img)) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.Weights, p.Weights) || len(q.Instrs) != len(p.Instrs) {
		t.Fatal("decoded program differs")
	}
	if budget := uint64(3*len(img) + 64<<10); got > budget {
		t.Errorf("Decode of a %d-byte image allocated %d bytes, budget %d", len(img), got, budget)
	}
}
