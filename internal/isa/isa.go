// Package isa defines the instruction set of the simulated instruction-driven
// CNN accelerator, both the original ISA (LOAD_W / LOAD_D / CALC_I / CALC_F /
// SAVE, Table 1 of the paper) and the Virtual-Instruction extension
// (Vir_SAVE / Vir_LOAD_D) that makes a compiled stream interruptible.
//
// A Program couples the instruction stream with a layer table carrying the
// geometry the execution engine needs for cycle-accurate timing and for
// functional (bit-exact) execution. Programs serialize to the
// `instruction.bin` format via Encode/Decode.
package isa

import "fmt"

// Op is an instruction opcode.
type Op uint8

// Opcodes. The first five form the original ISA; VirSave/VirLoadD are the
// virtual instructions added by the INCA compiler; End terminates a stream.
const (
	OpLoadW Op = iota
	OpLoadD
	OpCalcI
	OpCalcF
	OpSave
	OpVirSave
	OpVirLoadD
	OpEnd
	numOps
)

func (o Op) String() string {
	switch o {
	case OpLoadW:
		return "LOAD_W"
	case OpLoadD:
		return "LOAD_D"
	case OpCalcI:
		return "CALC_I"
	case OpCalcF:
		return "CALC_F"
	case OpSave:
		return "SAVE"
	case OpVirSave:
		return "Vir_SAVE"
	case OpVirLoadD:
		return "Vir_LOAD_D"
	case OpEnd:
		return "END"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Virtual reports whether the opcode is a virtual instruction: skipped by the
// IAU in normal flow, materialised only around an interrupt.
func (o Op) Virtual() bool { return o == OpVirSave || o == OpVirLoadD }

// Instruction is one fixed-width instruction record.
//
// Field meaning by opcode:
//
//	LOAD_W    Layer, OutG (out-channel group whose weights are loaded),
//	          Addr/Len (weight bytes incl. bias words in DDR).
//	LOAD_D    Layer, Which (0 = primary input, 1 = residual input),
//	          Row0/Rows (input featuremap rows fetched, all channels),
//	          Addr/Len. Delta loads fetch only rows not already resident.
//	CALC_I/F  Layer, InG, OutG, Row0/Rows (OUTPUT rows of the tile).
//	SAVE      Layer, Row0/Rows (output rows), SaveID, Addr/Len. Covers the
//	          out-channel groups [InG, OutG] (inclusive) of the tile — the
//	          compiler may emit one SAVE per CalcBlob, per few blobs, or per
//	          tile (BlobsPerSave).
//	Vir_SAVE  Like SAVE, but covers only the save window's groups finished
//	          when the preceding CALC_F retired ([InG, OutG]); executed only
//	          when an interrupt is taken here.
//	Vir_LOAD_D Like LOAD_D; restores the input-row window a resumed task
//	          needs (full window after CALC_F, forward overlap after SAVE).
//	END       stream terminator.
type Instruction struct {
	Op     Op
	Which  uint8  // LOAD_D input selector (0 primary, 1 residual)
	Layer  uint16 // index into Program.Layers
	InG    uint16 // input-channel group index
	OutG   uint16 // output-channel group index
	Row0   uint16 // first row of the affected row range
	Rows   uint16 // number of rows (0 ⇒ no-op transfer)
	Tile   uint16 // height-tile ordinal within the layer
	Bat    uint16 // batch element the instruction operates on (0 for LOAD_W)
	SaveID uint32 // correlates Vir_SAVE with the SAVE it pre-empts
	Addr   uint32 // DDR byte address (task-relative)
	Len    uint32 // transfer length in bytes
}

func (in Instruction) String() string {
	bat := ""
	if in.Bat > 0 {
		bat = fmt.Sprintf(" b%d", in.Bat)
	}
	switch in.Op {
	case OpLoadW:
		return fmt.Sprintf("%s l%d og%d addr=%d len=%d", in.Op, in.Layer, in.OutG, in.Addr, in.Len)
	case OpLoadD, OpVirLoadD:
		return fmt.Sprintf("%s l%d%s in%d rows[%d+%d) len=%d", in.Op, in.Layer, bat, in.Which, in.Row0, in.Rows, in.Len)
	case OpCalcI, OpCalcF:
		return fmt.Sprintf("%s l%d%s ig%d og%d tile%d rows[%d+%d)", in.Op, in.Layer, bat, in.InG, in.OutG, in.Tile, in.Row0, in.Rows)
	case OpSave, OpVirSave:
		return fmt.Sprintf("%s l%d%s tile%d rows[%d+%d) save=%d len=%d", in.Op, in.Layer, bat, in.Tile, in.Row0, in.Rows, in.SaveID, in.Len)
	default:
		return in.Op.String()
	}
}

// LayerOp distinguishes how the engine executes a layer's CALC instructions.
type LayerOp uint8

// Layer operation classes the accelerator executes.
const (
	LayerConv LayerOp = iota // dense or grouped/depthwise convolution
	LayerPool                // max pooling
	LayerAdd                 // element-wise residual addition
)

func (k LayerOp) String() string {
	switch k {
	case LayerConv:
		return "conv"
	case LayerPool:
		return "pool"
	case LayerAdd:
		return "add"
	default:
		return fmt.Sprintf("LayerOp(%d)", uint8(k))
	}
}

// LayerInfo is one row of a program's layer table: everything the engine
// needs to time and (optionally) functionally execute the layer's
// instructions.
type LayerInfo struct {
	Op   LayerOp
	Name string

	InC, InH, InW    int
	OutC, OutH, OutW int
	KH, KW           int
	Stride, Pad      int
	Groups           int // 1 dense; InC depthwise

	Shift uint8 // arithmetic right shift applied at requantization
	ReLU  bool

	// FusedPool, when >1, max-pools the conv output with this window/stride
	// during SAVE (OutH/OutW already reflect the pooled size).
	FusedPool int

	// FusedAdd, on a conv layer, folds a following residual Add into the
	// requantize pass: each output pixel becomes
	// SaturateAdd(Requantize(acc), residual>>AddShift, AddReLU), with the
	// residual featuremap (same OutC/OutH/OutW geometry) streamed from
	// In2Addr via Which=1 LOAD_D. The Add layer itself is deleted from the
	// program, eliminating its DDR round-trip.
	FusedAdd bool
	// AddShift is the arithmetic right shift applied to the residual operand
	// before the saturating add (the deleted Add layer's Shift).
	AddShift uint8
	// AddReLU applies ReLU after the fused residual addition.
	AddReLU bool

	// DDR layout (task-relative byte addresses).
	InAddr  uint32 // input featuremap region (int8, CHW)
	In2Addr uint32 // second input for LayerAdd
	OutAddr uint32 // output featuremap region (int8, CHW)
	WAddr   uint32 // weights region base (int8 tiles + int32 biases)

	// Tiling (derived from the parallelism the program was compiled for).
	NIn    int // ceil(effInC / ParaIn) input-channel groups
	NOut   int // ceil(OutC / ParaOut) output-channel groups
	NTiles int // ceil(OutH / ParaHeight) height tiles
}

// ConvRows maps an output-row range to the convolution-row range that
// computes it (identity unless pooling is fused into the layer).
func (l *LayerInfo) ConvRows(row0, rows int) (c0, cn int) {
	if l.FusedPool > 1 {
		return row0 * l.FusedPool, rows * l.FusedPool
	}
	return row0, rows
}

// ConvW returns the layer's convolution output width (pre-fused-pool).
func (l *LayerInfo) ConvW() int {
	if l.FusedPool > 1 {
		return l.OutW * l.FusedPool
	}
	return l.OutW
}

// InPlane returns the byte size of one batch element's input featuremap.
func (l *LayerInfo) InPlane() int { return l.InC * l.InH * l.InW }

// OutPlane returns the byte size of one batch element's output featuremap.
func (l *LayerInfo) OutPlane() int { return l.OutC * l.OutH * l.OutW }

// Program is a compiled, loadable instruction stream plus its layer table.
type Program struct {
	Name string

	// Parallelism the stream was scheduled for.
	ParaIn, ParaOut, ParaHeight int

	// Batch is the number of input planes the stream processes per run
	// (0 and 1 both mean a single-image plan). Every featuremap region in
	// the arena holds Batch consecutive planes; weights are shared, so each
	// LOAD_W is issued once and amortized across the whole batch.
	Batch int

	Layers []LayerInfo
	Instrs []Instruction

	// DDRBytes is the size of the task's DDR arena (featuremaps + weights).
	DDRBytes uint32

	// ResponseBound is the compiler-proven worst-case preemption-response
	// latency of the stream in accelerator cycles: from any stream position,
	// the modeled cycles until the task reaches its next interrupt point and
	// finishes the backup there (or runs to END and yields), assuming
	// fault-free execution under the VI method. 0 means the bound was not
	// modeled (no cost model at compile time). For uninterruptible streams
	// (no virtual instructions) it is the modeled solo completion time.
	ResponseBound uint64

	// Weights is the weight image, as the DDR bytes to place at WeightsAddr
	// (each layer's blobs at its WAddr) when running functionally: int32
	// little-endian biases and int8 weights in LOAD_W order. Empty for
	// timing-only programs.
	Weights []byte
	// WeightsAddr is the base address of the weight image.
	WeightsAddr uint32

	// InputAddr/InputBytes locate the network input featuremap in the arena.
	InputAddr  uint32
	InputBytes uint32
	// OutputAddr/OutputBytes locate the final output featuremap.
	OutputAddr  uint32
	OutputBytes uint32

	// Plan is host state, not program content: the accelerator model's
	// timing plan of this stream (accel.Plan), lowered on first use. The
	// codec never writes it, and the plan records the Program it was lowered
	// from, so a copy of the struct (or a Relocate/Link result) re-lowers
	// instead of trusting it.
	Plan any
}

// BatchN returns the effective batch size of the program (at least 1).
func (p *Program) BatchN() int {
	if p.Batch < 1 {
		return 1
	}
	return p.Batch
}

// Validate performs structural checks on the program: opcode validity, layer
// references, row ranges, batch bounds, and stream termination.
func (p *Program) Validate() error {
	if p.ParaIn <= 0 || p.ParaOut <= 0 || p.ParaHeight <= 0 {
		return fmt.Errorf("isa: program %q has invalid parallelism (%d,%d,%d)", p.Name, p.ParaIn, p.ParaOut, p.ParaHeight)
	}
	if len(p.Instrs) == 0 || p.Instrs[len(p.Instrs)-1].Op != OpEnd {
		return fmt.Errorf("isa: program %q does not end with END", p.Name)
	}
	for i, in := range p.Instrs {
		if in.Op >= numOps {
			return fmt.Errorf("isa: program %q instr %d has invalid opcode %d", p.Name, i, in.Op)
		}
		if in.Op == OpEnd {
			if i != len(p.Instrs)-1 {
				return fmt.Errorf("isa: program %q has END at %d before stream end", p.Name, i)
			}
			continue
		}
		if int(in.Layer) >= len(p.Layers) {
			return fmt.Errorf("isa: program %q instr %d references layer %d of %d", p.Name, i, in.Layer, len(p.Layers))
		}
		if int(in.Bat) >= p.BatchN() {
			return fmt.Errorf("isa: program %q instr %d batch %d out of range [0,%d)", p.Name, i, in.Bat, p.BatchN())
		}
		l := &p.Layers[in.Layer]
		switch in.Op {
		case OpCalcI, OpCalcF, OpSave, OpVirSave:
			if int(in.Row0)+int(in.Rows) > l.OutH {
				return fmt.Errorf("isa: program %q instr %d rows [%d,%d) exceed OutH=%d", p.Name, i, in.Row0, int(in.Row0)+int(in.Rows), l.OutH)
			}
		case OpLoadD, OpVirLoadD:
			if l.FusedAdd && in.Which == 1 {
				// The residual operand of a fused Add has the conv's OUTPUT
				// geometry, not its input geometry.
				if int(in.Row0)+int(in.Rows) > l.OutH {
					return fmt.Errorf("isa: program %q instr %d residual rows [%d,%d) exceed OutH=%d", p.Name, i, in.Row0, int(in.Row0)+int(in.Rows), l.OutH)
				}
			} else if int(in.Row0)+int(in.Rows) > l.InH {
				return fmt.Errorf("isa: program %q instr %d rows [%d,%d) exceed InH=%d", p.Name, i, in.Row0, int(in.Row0)+int(in.Rows), l.InH)
			}
		}
	}
	return nil
}

// StripVirtual returns a copy of the instruction stream with every virtual
// instruction removed — i.e. the original-ISA stream the IAU feeds the
// accelerator when no interrupt occurs.
func (p *Program) StripVirtual() []Instruction {
	out := make([]Instruction, 0, len(p.Instrs))
	for _, in := range p.Instrs {
		if !in.Op.Virtual() {
			out = append(out, in)
		}
	}
	return out
}

// IsInterruptPoint reports whether instruction i is a position at which the
// VI method may take an interrupt: a virtual instruction that begins a
// backup/restore group — a Vir_SAVE, or a Vir_LOAD_D that leads its group.
// This is the one statement of the rule; the IAU's switch test, the cost
// table and InterruptPoints all read it (internal/progcheck keeps its own
// copy on purpose, as the reference it is checked against).
func (p *Program) IsInterruptPoint(i int) bool {
	switch p.Instrs[i].Op {
	case OpVirSave:
		return true
	case OpVirLoadD:
		// Only the leader of a restore group is a take-point: a Vir_LOAD_D
		// after a Vir_SAVE belongs to that backup's group (switching there
		// would lose the unsaved results whose backup was already skipped),
		// and one after another Vir_LOAD_D (Add layers restore two inputs) is
		// mid-group — resuming from it would skip the earlier restores.
		return i == 0 || (p.Instrs[i-1].Op != OpVirSave && p.Instrs[i-1].Op != OpVirLoadD)
	}
	return false
}

// IsLayerBoundary reports whether the layer-by-layer method may switch
// before instruction i: it is the first instruction of a layer other than
// the stream's first (at i == 0 nothing has run, at END the task is about
// to finish anyway).
func (p *Program) IsLayerBoundary(i int) bool {
	return i > 0 && p.Instrs[i].Op != OpEnd && p.Instrs[i].Layer != p.Instrs[i-1].Layer
}

// InterruptPoints returns the indices of instructions at which the VI method
// may take an interrupt (see IsInterruptPoint).
func (p *Program) InterruptPoints() []int {
	var pts []int
	for i := range p.Instrs {
		if p.IsInterruptPoint(i) {
			pts = append(pts, i)
		}
	}
	return pts
}
