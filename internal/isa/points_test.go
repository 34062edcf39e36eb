package isa_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"inca/internal/isa"
)

// stream builds a minimal instruction slice from opcodes, assigning each
// instruction the layer given in layers (or 0 when layers is nil).
func stream(ops []isa.Op, layers []int) []isa.Instruction {
	ins := make([]isa.Instruction, len(ops))
	for i, op := range ops {
		ins[i].Op = op
		if layers != nil {
			ins[i].Layer = uint16(layers[i])
		}
	}
	return ins
}

func TestInterruptPointsEmptyProgram(t *testing.T) {
	p := &isa.Program{}
	if pts := p.InterruptPoints(); len(pts) != 0 {
		t.Fatalf("empty program has interrupt points %v", pts)
	}
	if s := p.StripVirtual(); len(s) != 0 {
		t.Fatalf("empty program strips to %d instructions", len(s))
	}
}

// TestInterruptPointsSkipMidGroup is the minimized regression for a bug the
// preemption fuzzer surfaced: Add layers restore two inputs, so a backup /
// restore group can contain two consecutive Vir_LOAD_D. Only the group
// leader is a legal take-point — parking on the second Vir_LOAD_D would skip
// the Vir_SAVE backup (or the first input's restore) on resume.
func TestInterruptPointsSkipMidGroup(t *testing.T) {
	p := &isa.Program{Instrs: stream([]isa.Op{
		isa.OpLoadD,    // 0
		isa.OpCalcF,    // 1
		isa.OpVirSave,  // 2  <- point (backup group leader)
		isa.OpVirLoadD, // 3     mid-group (post-Vir_SAVE)
		isa.OpVirLoadD, // 4     mid-group (second input restore)
		isa.OpCalcF,    // 5
		isa.OpSave,     // 6
		isa.OpVirLoadD, // 7  <- point (lone restore group leader)
		isa.OpVirLoadD, // 8     mid-group (second input restore)
		isa.OpLoadD,    // 9
		isa.OpCalcF,    // 10
		isa.OpSave,     // 11
		isa.OpEnd,      // 12
	}, nil)}
	want := []int{2, 7}
	if pts := p.InterruptPoints(); !reflect.DeepEqual(pts, want) {
		t.Fatalf("interrupt points = %v, want %v", pts, want)
	}
}

func TestInterruptPointsVirtualOnlyTail(t *testing.T) {
	// A stream that ends in a restore group with no END: the tail's leader
	// is still a point, its follower is not.
	p := &isa.Program{Instrs: stream([]isa.Op{
		isa.OpCalcF, isa.OpSave, isa.OpVirLoadD, isa.OpVirLoadD,
	}, nil)}
	want := []int{2}
	if pts := p.InterruptPoints(); !reflect.DeepEqual(pts, want) {
		t.Fatalf("interrupt points = %v, want %v", pts, want)
	}
	// And a stream that is nothing but virtuals: the leading Vir_LOAD_D
	// qualifies (i == 0), the rest are mid-group.
	p = &isa.Program{Instrs: stream([]isa.Op{
		isa.OpVirLoadD, isa.OpVirLoadD, isa.OpVirSave, isa.OpVirLoadD,
	}, nil)}
	want = []int{0, 2}
	if pts := p.InterruptPoints(); !reflect.DeepEqual(pts, want) {
		t.Fatalf("virtual-only stream points = %v, want %v", pts, want)
	}
}

func TestLayerBoundariesUnsorted(t *testing.T) {
	// Layer IDs that revisit an earlier value (an interleaved or unsorted
	// schedule): every change of layer is a boundary, not just the first
	// appearance of each ID.
	p := &isa.Program{Instrs: stream(
		[]isa.Op{isa.OpLoadD, isa.OpCalcF, isa.OpLoadD, isa.OpCalcF, isa.OpLoadD, isa.OpCalcF, isa.OpEnd},
		[]int{1, 1, 0, 0, 1, 1, 0},
	)}
	var lb []int
	for i := range p.Instrs {
		if p.IsLayerBoundary(i) {
			lb = append(lb, i)
		}
	}
	if want := []int{2, 4}; !reflect.DeepEqual(lb, want) {
		t.Fatalf("layer boundaries = %v, want %v", lb, want)
	}
}

func TestStripVirtualEdgeCases(t *testing.T) {
	// Virtual-only stream strips to nothing.
	p := &isa.Program{Instrs: stream([]isa.Op{isa.OpVirSave, isa.OpVirLoadD}, nil)}
	if s := p.StripVirtual(); len(s) != 0 {
		t.Fatalf("virtual-only stream stripped to %d instructions", len(s))
	}
	// Virtual tail: the real prefix survives in order, END included.
	p = &isa.Program{Instrs: stream([]isa.Op{
		isa.OpLoadD, isa.OpVirSave, isa.OpVirLoadD, isa.OpCalcF, isa.OpEnd, isa.OpVirLoadD,
	}, nil)}
	s := p.StripVirtual()
	wantOps := []isa.Op{isa.OpLoadD, isa.OpCalcF, isa.OpEnd}
	if len(s) != len(wantOps) {
		t.Fatalf("stripped to %d instructions, want %d", len(s), len(wantOps))
	}
	for i, in := range s {
		if in.Op != wantOps[i] {
			t.Fatalf("stripped[%d] = %v, want %v", i, in.Op, wantOps[i])
		}
	}
	// Stripping must not alias the original stream.
	if len(p.Instrs) != 6 {
		t.Fatal("StripVirtual mutated the program")
	}
}

// TestDecodeHostileCounts is the minimized regression for a robustness bug
// the codec fuzzer surfaced: Decode used to trust the header's record
// counts and pre-allocate layer/instruction/weight slices from them, so a
// 44-byte input claiming 4 billion instructions allocated hundreds of
// gigabytes before the first record read could fail. Decoding must now fail
// fast with memory proportional to the input actually supplied: for this
// header-only input, the reader's buffer and nothing sized by a count.
func TestDecodeHostileCounts(t *testing.T) {
	// magic + version-3 header with zero name, then counts claiming 2^32-1
	// layers, instructions and weight bytes, a zero response bound — and no
	// body at all.
	var buf bytes.Buffer
	buf.WriteString("INCA")
	hdr := []uint16{3, 0, 4, 4, 3, 1, 0} // version, flags, paraIn/Out/Height, batch, nameLen
	for _, v := range hdr {
		buf.WriteByte(byte(v))
		buf.WriteByte(byte(v >> 8))
	}
	for i := 0; i < 9; i++ { // nine u32 count fields, all 0xFFFFFFFF
		buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	}
	buf.Write(make([]byte, 8)) // u64 responseBound
	done := make(chan error, 1)
	got := allocated(func() {
		go func() {
			_, err := isa.Decode(bytes.NewReader(buf.Bytes()))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("Decode accepted a truncated stream claiming 2^32-1 records")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Decode did not fail fast on hostile record counts")
		}
	})
	if got > 64<<10 {
		t.Errorf("Decode allocated %d bytes for a %d-byte input", got, buf.Len())
	}
}
