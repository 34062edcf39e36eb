package isa

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary format of instruction.bin:
//
//	header:  magic "INCA" | u16 version | u16 flags
//	         u16 paraIn | u16 paraOut | u16 paraHeight | u16 batch
//	         u16 nameLen | name
//	         u32 nLayers | u32 nInstrs | u32 ddrBytes
//	         u32 inputAddr | u32 inputBytes | u32 outputAddr | u32 outputBytes
//	         u32 weightsAddr | u32 weightsLen
//	         u64 responseBound
//	layers:  fixed 72-byte records + u16-prefixed name
//	instrs:  fixed 28-byte records (see instrRecordBytes)
//	weights: the DDR weight image, verbatim (weightsLen bytes)
//
// Version history: v1 had no batch field, no fused-residual layer fields and
// a 68-byte layer record. v2 added the batch dimension and the
// FusedAdd/AddShift/AddReLU epilogue fields. v3 (current) appends a u64
// responseBound after the counts block (the compiler-proven worst-case
// preemption-response latency in cycles, 0 = unmodeled). Decode reads v3
// only: nothing writes v1 or v2 images any more, and both are rejected.

const (
	magic   = "INCA"
	version = 3
)

type fixedHeader struct {
	Version    uint16
	Flags      uint16
	ParaIn     uint16
	ParaOut    uint16
	ParaHeight uint16
	Batch      uint16
	NameLen    uint16
}

type fixedCounts struct {
	NLayers     uint32
	NInstrs     uint32
	DDRBytes    uint32
	InputAddr   uint32
	InputBytes  uint32
	OutputAddr  uint32
	OutputBytes uint32
	WeightsAddr uint32
	WeightsLen  uint32
}

type fixedLayer struct {
	Op        uint8
	Shift     uint8
	ReLU      uint8
	FusedPool uint8
	FusedAdd  uint8
	AddShift  uint8
	AddReLU   uint8
	_         uint8 // pad
	InC       uint32
	InH       uint32
	InW       uint32
	OutC      uint32
	OutH      uint32
	OutW      uint32
	KH        uint16
	KW        uint16
	Stride    uint16
	Pad       uint16
	Groups    uint32
	InAddr    uint32
	In2Addr   uint32
	OutAddr   uint32
	WAddr     uint32
	NIn       uint32
	NOut      uint32
	NTiles    uint32
}

// instrRecordBytes is the size of one instruction record on the wire:
//
//	u8 op | u8 which | u16 layer | u16 inG | u16 outG | u16 row0 | u16 rows
//	u16 tile | u16 bat | u32 saveID | u32 addr | u32 len
//
// A program carries tens of thousands of them, so Encode and Decode pack the
// record by hand instead of reflecting over a struct per instruction.
const instrRecordBytes = 28

func putInstr(b *[instrRecordBytes]byte, in *Instruction) {
	le := binary.LittleEndian
	b[0], b[1] = uint8(in.Op), in.Which
	le.PutUint16(b[2:], in.Layer)
	le.PutUint16(b[4:], in.InG)
	le.PutUint16(b[6:], in.OutG)
	le.PutUint16(b[8:], in.Row0)
	le.PutUint16(b[10:], in.Rows)
	le.PutUint16(b[12:], in.Tile)
	le.PutUint16(b[14:], in.Bat)
	le.PutUint32(b[16:], in.SaveID)
	le.PutUint32(b[20:], in.Addr)
	le.PutUint32(b[24:], in.Len)
}

func getInstr(b *[instrRecordBytes]byte) Instruction {
	le := binary.LittleEndian
	return Instruction{
		Op: Op(b[0]), Which: b[1], Layer: le.Uint16(b[2:]),
		InG: le.Uint16(b[4:]), OutG: le.Uint16(b[6:]),
		Row0: le.Uint16(b[8:]), Rows: le.Uint16(b[10:]),
		Tile: le.Uint16(b[12:]), Bat: le.Uint16(b[14:]),
		SaveID: le.Uint32(b[16:]), Addr: le.Uint32(b[20:]), Len: le.Uint32(b[24:]),
	}
}

// EncodeError reports a program field whose value the instruction.bin format
// cannot represent. Encode returns it before writing anything: a wrapped
// value would produce an image that decodes to a different program.
type EncodeError struct {
	Field string // wire field name, e.g. "Batch", "WeightsLen", "Layers[3].KH"
	Value int64
	Max   int64 // largest encodable value (the smallest is 0)
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("isa: cannot encode %s = %d (format holds 0..%d)", e.Field, e.Value, e.Max)
}

// narrower converts program fields to their wire widths and remembers the
// first that does not fit, named under Layers[layer] when layer >= 0.
type narrower struct {
	layer int
	err   *EncodeError
}

func (n *narrower) fit(field string, v int, max int64) int {
	if n.err == nil && (v < 0 || int64(v) > max) {
		if n.layer >= 0 {
			field = fmt.Sprintf("Layers[%d].%s", n.layer, field)
		}
		n.err = &EncodeError{Field: field, Value: int64(v), Max: max}
	}
	return v
}

func (n *narrower) u8(field string, v int) uint8   { return uint8(n.fit(field, v, math.MaxUint8)) }
func (n *narrower) u16(field string, v int) uint16 { return uint16(n.fit(field, v, math.MaxUint16)) }
func (n *narrower) u32(field string, v int) uint32 { return uint32(n.fit(field, v, math.MaxUint32)) }

// Encode writes the program in instruction.bin format. A program with a
// field the format cannot hold is refused with an *EncodeError and nothing is
// written.
func Encode(w io.Writer, p *Program) error {
	// The header and layer table are small: build them first, so that a
	// refusal comes before the first byte reaches w. (A bytes.Buffer write
	// cannot fail, and binary.Write only fails on types it cannot size.)
	var head bytes.Buffer
	nw := narrower{layer: -1}
	le := binary.LittleEndian
	head.WriteString(magic)
	binary.Write(&head, le, fixedHeader{
		Version:    version,
		ParaIn:     nw.u16("ParaIn", p.ParaIn),
		ParaOut:    nw.u16("ParaOut", p.ParaOut),
		ParaHeight: nw.u16("ParaHeight", p.ParaHeight),
		Batch:      nw.u16("Batch", p.Batch),
		NameLen:    nw.u16("NameLen", len(p.Name)),
	})
	head.WriteString(p.Name)
	binary.Write(&head, le, fixedCounts{
		NLayers:     nw.u32("NLayers", len(p.Layers)),
		NInstrs:     nw.u32("NInstrs", len(p.Instrs)),
		DDRBytes:    p.DDRBytes,
		InputAddr:   p.InputAddr,
		InputBytes:  p.InputBytes,
		OutputAddr:  p.OutputAddr,
		OutputBytes: p.OutputBytes,
		WeightsAddr: p.WeightsAddr,
		WeightsLen:  nw.u32("WeightsLen", len(p.Weights)),
	})
	binary.Write(&head, le, p.ResponseBound)
	for i := range p.Layers {
		l := &p.Layers[i]
		nw.layer = i
		binary.Write(&head, le, fixedLayer{
			Op: uint8(l.Op), Shift: l.Shift, ReLU: b2u(l.ReLU), FusedPool: nw.u8("FusedPool", l.FusedPool),
			FusedAdd: b2u(l.FusedAdd), AddShift: l.AddShift, AddReLU: b2u(l.AddReLU),
			InC: nw.u32("InC", l.InC), InH: nw.u32("InH", l.InH), InW: nw.u32("InW", l.InW),
			OutC: nw.u32("OutC", l.OutC), OutH: nw.u32("OutH", l.OutH), OutW: nw.u32("OutW", l.OutW),
			KH: nw.u16("KH", l.KH), KW: nw.u16("KW", l.KW), Stride: nw.u16("Stride", l.Stride), Pad: nw.u16("Pad", l.Pad),
			Groups: nw.u32("Groups", l.Groups),
			InAddr: l.InAddr, In2Addr: l.In2Addr, OutAddr: l.OutAddr, WAddr: l.WAddr,
			NIn: nw.u32("NIn", l.NIn), NOut: nw.u32("NOut", l.NOut), NTiles: nw.u32("NTiles", l.NTiles),
		})
		binary.Write(&head, le, nw.u16("NameLen", len(l.Name)))
		head.WriteString(l.Name)
	}
	if nw.err != nil {
		return nw.err
	}

	// A bufio.Writer keeps its first error and Flush returns it.
	bw := bufio.NewWriter(w)
	bw.Write(head.Bytes())
	var rec [instrRecordBytes]byte
	for i := range p.Instrs {
		putInstr(&rec, &p.Instrs[i])
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	bw.Write(p.Weights)
	return bw.Flush()
}

// grow returns s with room for at least one more element, doubling the
// capacity but never past declared, the element count the header claims.
// Decode's counts are untrusted input: growing only as records actually
// arrive means a corrupted header costs memory proportional to the bytes
// supplied (every step at most doubles what has already been filled), where
// one up-front make() would cost whatever the header says.
func grow[T any](s []T, declared int) []T {
	if len(s) < cap(s) {
		return s
	}
	const floor = 1 << 12
	out := make([]T, len(s), min(max(2*cap(s), floor), declared))
	copy(out, s)
	return out
}

// Decode reads a program from instruction.bin format.
func Decode(r io.Reader) (*Program, error) {
	br := bufio.NewReader(r)
	mg := make([]byte, len(magic))
	if _, err := io.ReadFull(br, mg); err != nil {
		return nil, fmt.Errorf("isa: reading magic: %w", err)
	}
	if string(mg) != magic {
		return nil, fmt.Errorf("isa: bad magic %q", mg)
	}
	var hdr fixedHeader
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("isa: reading header: %w", err)
	}
	if hdr.Version != version {
		return nil, fmt.Errorf("isa: unsupported version %d", hdr.Version)
	}
	name := make([]byte, hdr.NameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("isa: reading name: %w", err)
	}
	var counts fixedCounts
	if err := binary.Read(br, binary.LittleEndian, &counts); err != nil {
		return nil, fmt.Errorf("isa: reading counts: %w", err)
	}
	var respBound uint64
	if err := binary.Read(br, binary.LittleEndian, &respBound); err != nil {
		return nil, fmt.Errorf("isa: reading response bound: %w", err)
	}
	p := &Program{
		Name:          string(name),
		ResponseBound: respBound,
		ParaIn:        int(hdr.ParaIn),
		ParaOut:       int(hdr.ParaOut),
		ParaHeight:    int(hdr.ParaHeight),
		Batch:         int(hdr.Batch),
		Layers:        []LayerInfo{}, // empty, not nil, when the counts are zero
		Instrs:        []Instruction{},
		DDRBytes:      counts.DDRBytes,
		InputAddr:     counts.InputAddr, InputBytes: counts.InputBytes,
		OutputAddr: counts.OutputAddr, OutputBytes: counts.OutputBytes,
		WeightsAddr: counts.WeightsAddr,
	}
	nLayers, nInstrs, nWeights := int(counts.NLayers), int(counts.NInstrs), int(counts.WeightsLen)
	for i := 0; i < nLayers; i++ {
		var fl fixedLayer
		if err := binary.Read(br, binary.LittleEndian, &fl); err != nil {
			return nil, fmt.Errorf("isa: reading layer %d: %w", i, err)
		}
		var nl uint16
		if err := binary.Read(br, binary.LittleEndian, &nl); err != nil {
			return nil, fmt.Errorf("isa: reading layer %d name len: %w", i, err)
		}
		ln := make([]byte, nl)
		if _, err := io.ReadFull(br, ln); err != nil {
			return nil, fmt.Errorf("isa: reading layer %d name: %w", i, err)
		}
		p.Layers = append(grow(p.Layers, nLayers), LayerInfo{
			Op: LayerOp(fl.Op), Name: string(ln),
			InC: int(fl.InC), InH: int(fl.InH), InW: int(fl.InW),
			OutC: int(fl.OutC), OutH: int(fl.OutH), OutW: int(fl.OutW),
			KH: int(fl.KH), KW: int(fl.KW), Stride: int(fl.Stride), Pad: int(fl.Pad),
			Groups: int(fl.Groups), Shift: fl.Shift, ReLU: fl.ReLU != 0, FusedPool: int(fl.FusedPool),
			FusedAdd: fl.FusedAdd != 0, AddShift: fl.AddShift, AddReLU: fl.AddReLU != 0,
			InAddr: fl.InAddr, In2Addr: fl.In2Addr, OutAddr: fl.OutAddr, WAddr: fl.WAddr,
			NIn: int(fl.NIn), NOut: int(fl.NOut), NTiles: int(fl.NTiles),
		})
	}
	var rec [instrRecordBytes]byte
	for i := 0; i < nInstrs; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("isa: reading instr %d: %w", i, err)
		}
		p.Instrs = append(grow(p.Instrs, nInstrs), getInstr(&rec))
	}
	// The weight image moves in bulk, straight into each grown tail.
	for len(p.Weights) < nWeights {
		p.Weights = grow(p.Weights, nWeights)
		tail := p.Weights[len(p.Weights):cap(p.Weights)]
		if _, err := io.ReadFull(br, tail); err != nil {
			return nil, fmt.Errorf("isa: reading weights: %w", err)
		}
		p.Weights = p.Weights[:cap(p.Weights)]
	}
	return p, nil
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
