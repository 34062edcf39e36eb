package isa_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"inca/internal/isa"
)

// TestDecodeRejectsOldVersions: Decode reads the current codec (v3) only. No
// tool writes v1 or v2 images any more, so each is refused at the header
// with an error naming its version, as is a version from the future.
func TestDecodeRejectsOldVersions(t *testing.T) {
	var buf bytes.Buffer
	if err := isa.Encode(&buf, sampleProgram()); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint16{1, 2, 4} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			img := append([]byte(nil), buf.Bytes()...)
			binary.LittleEndian.PutUint16(img[4:6], v)
			_, err := isa.Decode(bytes.NewReader(img))
			if want := fmt.Sprintf("version %d", v); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Decode of a v%d image: err = %v, want one naming %q", v, err, want)
			}
		})
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
