package isa

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fixedInstr declares the instruction record putInstr/getInstr pack by hand,
// in the form the codec used to reflect over.
type fixedInstr struct {
	Op     uint8
	Which  uint8
	Layer  uint16
	InG    uint16
	OutG   uint16
	Row0   uint16
	Rows   uint16
	Tile   uint16
	Bat    uint16
	SaveID uint32
	Addr   uint32
	Len    uint32
}

// TestWireRecordSizes pins the record sizes the format comment states
// against the structs and the hand-packed constant, and the hand-packed
// field offsets against the struct's, so the three cannot drift apart.
func TestWireRecordSizes(t *testing.T) {
	if got := binary.Size(fixedInstr{}); got != instrRecordBytes {
		t.Errorf("instruction record: struct %d bytes, instrRecordBytes %d", got, instrRecordBytes)
	}
	if instrRecordBytes != 28 {
		t.Errorf("instrRecordBytes = %d, format comment says 28", instrRecordBytes)
	}
	if got := binary.Size(fixedLayer{}); got != 72 {
		t.Errorf("layer record: struct %d bytes, format comment says 72", got)
	}

	in := Instruction{
		Op: OpVirLoadD, Which: 0x12, Layer: 0x3456, InG: 0x789a, OutG: 0xbcde, Row0: 0xf012,
		Rows: 0x3457, Tile: 0x89ab, Bat: 0xcdef, SaveID: 0x01234567, Addr: 0x89abcdef, Len: 0x02468ace,
	}
	var want bytes.Buffer
	if err := binary.Write(&want, binary.LittleEndian, fixedInstr{
		Op: uint8(in.Op), Which: in.Which, Layer: in.Layer,
		InG: in.InG, OutG: in.OutG, Row0: in.Row0, Rows: in.Rows, Tile: in.Tile,
		Bat: in.Bat, SaveID: in.SaveID, Addr: in.Addr, Len: in.Len,
	}); err != nil {
		t.Fatal(err)
	}
	var rec [instrRecordBytes]byte
	putInstr(&rec, &in)
	if !bytes.Equal(rec[:], want.Bytes()) {
		t.Errorf("putInstr wrote % x, binary.Write of the struct % x", rec, want.Bytes())
	}
	if back := getInstr(&rec); back != in {
		t.Errorf("getInstr(putInstr(x)) = %+v, want %+v", back, in)
	}
}

// TestNarrowerLengthFields covers the check the three length fields share
// with the rest: NLayers, NInstrs and WeightsLen cannot be tripped through
// Encode without a 4 GiB slice.
func TestNarrowerLengthFields(t *testing.T) {
	nw := narrower{layer: -1}
	if nw.u32("WeightsLen", 1<<32-1) != 1<<32-1 || nw.u8("Zero", 0) != 0 || nw.err != nil {
		t.Fatalf("values that fit refused: %v", nw.err)
	}
	nw.u32("WeightsLen", 1<<32)
	nw.u32("NInstrs", -1)
	if want := (EncodeError{Field: "WeightsLen", Value: 1 << 32, Max: 1<<32 - 1}); nw.err == nil || *nw.err != want {
		t.Errorf("got %v, want the first overflow %v", nw.err, &want)
	}
	nw = narrower{layer: 2}
	nw.u32("NIn", -1)
	if want := (EncodeError{Field: "Layers[2].NIn", Value: -1, Max: 1<<32 - 1}); nw.err == nil || *nw.err != want {
		t.Errorf("got %v, want %v", nw.err, &want)
	}
}
