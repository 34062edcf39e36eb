package isa_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"inca/internal/isa"
)

// spliceV2 rewrites an encoded v3 image into the v2 layout: version stamp 2
// and the 8-byte response-bound field removed. v2 is the codec the repo
// shipped before the proven bound existed; Decode must keep reading it.
func spliceV2(t *testing.T, raw []byte) []byte {
	t.Helper()
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint16(out[4:6], 2)
	nameLen := int(binary.LittleEndian.Uint16(out[16:18]))
	off := 4 + 14 + nameLen + 36 // magic + fixed header + name + counts
	return append(out[:off:off], out[off+8:]...)
}

// TestV2DecodeRelocateDisasm: a v2 (bound-less) stream decodes to the same
// program minus the bound, relocates cleanly, and disassembles to exactly
// the text of the v3 original — the listing shows stream content, not codec
// vintage.
func TestV2DecodeRelocateDisasm(t *testing.T) {
	p := sampleProgram()
	p.ResponseBound = 7777
	var buf bytes.Buffer
	if err := isa.Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	v2, err := isa.Decode(bytes.NewReader(spliceV2(t, buf.Bytes())))
	if err != nil {
		t.Fatalf("v2 decode: %v", err)
	}
	if v2.ResponseBound != 0 {
		t.Fatalf("v2 stream decoded with bound %d, want 0", v2.ResponseBound)
	}
	want := *p
	want.ResponseBound = 0
	if !reflect.DeepEqual(&want, v2) {
		t.Fatalf("v2 decode differs beyond the bound:\n%+v\nvs\n%+v", &want, v2)
	}

	rel, err := isa.Relocate(v2, 4096)
	if err != nil {
		t.Fatalf("relocating v2 program: %v", err)
	}
	if err := rel.Validate(); err != nil {
		t.Fatalf("relocated v2 program invalid: %v", err)
	}
	var d3, d2 strings.Builder
	if err := p.Disassemble(&d3); err != nil {
		t.Fatal(err)
	}
	if err := v2.Disassemble(&d2); err != nil {
		t.Fatal(err)
	}
	if d3.String() != d2.String() {
		t.Error("v2 and v3 decodes of the same stream disassemble differently")
	}

	// Re-encoding a v2 decode upgrades it to the current codec: the image
	// round-trips with a zero (honest) bound, not a fabricated one.
	var up bytes.Buffer
	if err := isa.Encode(&up, v2); err != nil {
		t.Fatal(err)
	}
	back, err := isa.Decode(&up)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v2, back) {
		t.Fatal("v2 program does not survive re-encode through the current codec")
	}
}

// TestRelocateHostileOffsets probes the edges of the 32-bit task address
// space: an exactly-fitting base is legal, one more region is not, and
// null transfers (Addr=0, Len=0) stay position-independent.
func TestRelocateHostileOffsets(t *testing.T) {
	p := sampleProgram()
	p.ResponseBound = 4242

	fit := uint32((1<<32 - uint64(p.DDRBytes)) &^ 63)
	rel, err := isa.Relocate(p, fit)
	if err != nil {
		t.Fatalf("exactly-fitting base %d rejected: %v", fit, err)
	}
	if rel.DDRBytes != fit+p.DDRBytes {
		t.Fatalf("arena %d after relocation by %d", rel.DDRBytes, fit)
	}
	if _, err := isa.Relocate(p, fit+64); err == nil {
		t.Fatalf("base %d overflows the address space but was accepted", fit+64)
	}
	if _, err := isa.Relocate(p, fit+1); err == nil {
		t.Fatal("unaligned near-overflow base accepted")
	}

	// A null transfer carries no address: relocation must not conjure one.
	null := sampleProgram()
	null.Instrs = append([]isa.Instruction{{Op: isa.OpLoadD, Layer: 0}}, null.Instrs...)
	rel, err = isa.Relocate(null, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Instrs[0].Addr; got != 0 {
		t.Errorf("null transfer relocated to %d, want 0", got)
	}
	if got := rel.Instrs[1].Addr; got != 4096 {
		t.Errorf("real transfer at %d, want 4096", got)
	}
}

// TestRelocatePreservesBound: the proven bound is address-invariant, so it
// must ride through Relocate and Link unchanged.
func TestRelocatePreservesBound(t *testing.T) {
	p := sampleProgram()
	p.ResponseBound = 99991
	rel, err := isa.Relocate(p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if rel.ResponseBound != p.ResponseBound {
		t.Fatalf("relocation changed the bound: %d -> %d", p.ResponseBound, rel.ResponseBound)
	}
	linked, _, err := isa.Link([]*isa.Program{sampleProgram(), p})
	if err != nil {
		t.Fatal(err)
	}
	if linked[1].ResponseBound != p.ResponseBound {
		t.Fatalf("linking changed the bound: %d -> %d", p.ResponseBound, linked[1].ResponseBound)
	}
}

// TestBuildLinkedArena: the shared image places every task's weights at
// its relocated base, and refuses mismatched or weightless programs.
func TestBuildLinkedArena(t *testing.T) {
	a, b := sampleProgram(), sampleProgram()
	b.Name = "second"
	linked, total, err := isa.Link([]*isa.Program{a, b})
	if err != nil {
		t.Fatal(err)
	}
	arena, err := isa.BuildLinkedArena(linked)
	if err != nil {
		t.Fatal(err)
	}
	if uint32(len(arena)) != total {
		t.Fatalf("arena %d bytes, want %d", len(arena), total)
	}
	for i, p := range linked {
		if got := arena[p.WeightsAddr:][:len(p.Weights)]; !bytes.Equal(got, p.Weights) {
			t.Fatalf("program %d: arena holds %v at its weight base, want %v", i, got, p.Weights)
		}
	}

	if _, err := isa.BuildLinkedArena(nil); err == nil {
		t.Error("empty link accepted")
	}
	unlinked := []*isa.Program{linked[0], sampleProgram()}
	if _, err := isa.BuildLinkedArena(unlinked); err == nil {
		t.Error("mismatched arenas accepted")
	}
	bare := *linked[0]
	bare.Weights = nil
	if _, err := isa.BuildLinkedArena([]*isa.Program{&bare}); err == nil {
		t.Error("weightless program accepted")
	}
}

// TestDisassembleByteStable pins the listing format: repeated runs are
// byte-identical (no map-order leakage) and the pinned sample program
// renders exactly the golden lines below, so any formatting change is a
// deliberate diff here rather than silent drift in -dump output.
func TestDisassembleByteStable(t *testing.T) {
	render := func() string {
		var b strings.Builder
		if err := sampleProgram().Disassemble(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := render()
	for i := 0; i < 3; i++ {
		if render() != first {
			t.Fatal("disassembly differs across runs of the same program")
		}
	}
	want := strings.Join([]string{
		`program "sample"  Para=(16,16,8)  1 layers, 7 instructions, DDR 1048576 bytes`,
		``,
		`layer table:`,
		`  L0   conv  conv1              in 3x32x32 @0  out 16x32x32 @4096  k3x3 s1 p1  tiles=4 blobs=1x1 relu`,
		``,
		`instruction stream (* marks an interrupt point):`,
		`  ; ---- layer 0 (conv1) ----`,
		`  ; tile 0`,
	}, "\n")
	if !strings.HasPrefix(first, want) {
		t.Errorf("pinned disassembly prefix drifted:\n--- want ---\n%s\n--- got ---\n%s", want, first)
	}
}
