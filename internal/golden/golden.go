// Package golden is the executable specification of the accelerator's
// five-op ISA (LOAD_W / LOAD_D / CALC_I / CALC_F / SAVE). It executes a
// compiled isa.Program sequentially against a DDR arena with none of the
// machinery the real stack has grown — no tiling-aware fast paths, no
// row-sliced kernels, no worker sharding, no snapshots, no preemption.
// Virtual instructions are skipped, exactly as the IAU discards them in
// uninterrupted flow.
//
// Because it is small and obviously correct, the golden interpreter is the
// contract every optimized or interrupted execution is verified against:
// the preemption-equivalence harness (internal/verify) asserts that the
// real accel+IAU+sched stack, under any interrupt schedule and any policy,
// leaves the arena bit-identical to a golden run.
//
// The interpreter is also a checker: it validates the architectural
// preconditions each instruction assumes (weights loaded for the right
// group, input rows resident, CALC_F finished before SAVE), so a compiler
// that emits an illegal stream fails here rather than producing garbage.
package golden

import (
	"encoding/binary"
	"fmt"

	"inca/internal/accel"
	"inca/internal/isa"
	"inca/internal/quant"
	"inca/internal/tensor"
)

// interp is the architectural state of the spec machine: the on-chip
// buffers whose loss on preemption the virtual instructions must repair.
type interp struct {
	p     *isa.Program
	arena []byte

	layer int // layer of the instruction last executed (-1 = none)

	// Resident input-row windows per LOAD_D selector (0 primary, 1 residual)
	// per batch element — a batched plan keeps one window register file per
	// element so the shared weights can sweep all of them.
	winLo, winHi [2][]int
	winOK        [2][]bool

	// Loaded weight blob.
	wLayer, wOG int
	bias        []int32
	weights     []int8

	// Accumulator tile: one out-channel group of one batch element at
	// convolution resolution.
	accLayer, accTile, accOG, accBat int
	accRow0, accRows                 int
	accOK                            bool
	acc                              []int32

	// Final-results tile: all out channels of one (layer, tile, element).
	finLayer, finTile, finBat int
	finRow0, finRows          int
	finOK                     bool
	fin                       []int8
	finDone                   []bool
}

// win grows the per-element window registers to cover bat and returns the
// index (identity); callers then address winLo[w][bat] etc.
func (g *interp) win(w, bat int) int {
	for len(g.winOK[w]) <= bat {
		g.winLo[w] = append(g.winLo[w], 0)
		g.winHi[w] = append(g.winHi[w], 0)
		g.winOK[w] = append(g.winOK[w], false)
	}
	return bat
}

// Run executes the program's instruction stream sequentially against the
// arena, skipping virtual instructions. On return the arena holds every
// layer's output featuremap, bit-identical to what a correct accelerator
// produces.
func Run(p *isa.Program, arena []byte) error {
	if err := p.Validate(); err != nil {
		return err
	}
	g := &interp{p: p, arena: arena, layer: -1, wLayer: -1, wOG: -1}
	for i, in := range p.Instrs {
		if in.Op == isa.OpEnd {
			break
		}
		if in.Op.Virtual() {
			continue
		}
		if err := g.exec(in); err != nil {
			return fmt.Errorf("golden: instr %d (%s): %w", i, in, err)
		}
	}
	return nil
}

// RunNet builds a fresh arena for the program, writes input b into batch
// element b's plane, runs the stream, and returns the arena: the expected
// DDR image of an uninterrupted run.
func RunNet(p *isa.Program, inputs ...*tensor.Int8) ([]byte, error) {
	arena, err := accel.NewArena(p)
	if err != nil {
		return nil, err
	}
	for b, in := range inputs {
		if err := accel.WriteInputAt(arena, p, in, b); err != nil {
			return nil, err
		}
	}
	if err := Run(p, arena); err != nil {
		return nil, err
	}
	return arena, nil
}

func (g *interp) exec(in isa.Instruction) error {
	if int(in.Layer) != g.layer {
		// A new layer reuses every on-chip buffer: windows, weights,
		// accumulators, and finals all become invalid.
		for w := 0; w < 2; w++ {
			for b := range g.winOK[w] {
				g.winOK[w][b] = false
			}
		}
		g.wLayer, g.wOG = -1, -1
		g.accOK, g.finOK = false, false
		g.layer = int(in.Layer)
	}
	l := &g.p.Layers[in.Layer]
	switch in.Op {
	case isa.OpLoadD:
		return g.loadD(in)
	case isa.OpLoadW:
		return g.loadW(l, in)
	case isa.OpCalcI, isa.OpCalcF:
		return g.calc(l, in)
	case isa.OpSave:
		return g.save(l, in)
	}
	return fmt.Errorf("unexpected opcode %v", in.Op)
}

// loadD extends (or re-establishes) a resident input-row window. A delta
// load adjoining the current window merges into it; a disjoint segment
// replaces it (the line buffer keeps only the new rows).
func (g *interp) loadD(in isa.Instruction) error {
	if in.Rows == 0 {
		return nil
	}
	w := int(in.Which)
	if w > 1 {
		return fmt.Errorf("load_d selector %d out of range", in.Which)
	}
	b := g.win(w, int(in.Bat))
	lo, hi := int(in.Row0), int(in.Row0)+int(in.Rows)
	if !g.winOK[w][b] || lo > g.winHi[w][b] || hi < g.winLo[w][b] {
		g.winLo[w][b], g.winHi[w][b], g.winOK[w][b] = lo, hi, true
		return nil
	}
	if hi > g.winHi[w][b] {
		g.winHi[w][b] = hi
	}
	if lo < g.winLo[w][b] {
		g.winLo[w][b] = lo
	}
	return nil
}

// loadW decodes one out-channel group's weight blob from the arena:
// [int32 bias x oCnt][int8 weights, oc-major].
func (g *interp) loadW(l *isa.LayerInfo, in isa.Instruction) error {
	oCnt := groupChannels(l.OutC, g.p.ParaOut, int(in.OutG))
	if oCnt <= 0 {
		return fmt.Errorf("load_w beyond output channels (og=%d outC=%d)", in.OutG, l.OutC)
	}
	end := int(in.Addr) + int(in.Len)
	if end > len(g.arena) || int(in.Addr) > end {
		return fmt.Errorf("load_w out of arena bounds [%d,%d) of %d", in.Addr, end, len(g.arena))
	}
	blob := g.arena[in.Addr:end]
	if len(blob) < oCnt*4 {
		return fmt.Errorf("load_w blob %d bytes, biases need %d", len(blob), oCnt*4)
	}
	g.bias = make([]int32, oCnt)
	for i := range g.bias {
		g.bias[i] = int32(binary.LittleEndian.Uint32(blob[i*4:]))
	}
	g.weights = make([]int8, len(blob)-oCnt*4)
	for i, b := range blob[oCnt*4:] {
		g.weights[i] = int8(b)
	}
	g.wLayer, g.wOG = int(in.Layer), int(in.OutG)
	return nil
}

// needRows checks that the input rows a CALC consumes are resident in the
// given selector's window for batch element bat.
func (g *interp) needRows(which, bat int, l *isa.LayerInfo, row0, rows int) error {
	c0, cn := l.ConvRows(row0, rows)
	lo := c0*l.Stride - l.Pad
	hi := (c0+cn-1)*l.Stride - l.Pad + l.KH
	if lo < 0 {
		lo = 0
	}
	if hi > l.InH {
		hi = l.InH
	}
	if hi <= lo {
		// The whole window falls in padding (possible when Pad >= KH on the
		// last stride step); no input rows are required.
		return nil
	}
	return g.needSpan(which, bat, lo, hi)
}

// needSpan checks residency of rows [lo,hi) in window (which, bat).
func (g *interp) needSpan(which, bat, lo, hi int) error {
	b := g.win(which, bat)
	if !g.winOK[which][b] || lo < g.winLo[which][b] || hi > g.winHi[which][b] {
		return fmt.Errorf("input rows [%d,%d) of element %d not resident (window valid=%v [%d,%d))",
			lo, hi, bat, g.winOK[which][b], g.winLo[which][b], g.winHi[which][b])
	}
	return nil
}

func (g *interp) calc(l *isa.LayerInfo, in isa.Instruction) error {
	row0, rows := int(in.Row0), int(in.Rows)
	bat := int(in.Bat)
	if err := g.needRows(0, bat, l, row0, rows); err != nil {
		return err
	}
	switch l.Op {
	case isa.LayerConv:
		if l.FusedAdd && in.Op == isa.OpCalcF {
			// The fused residual streams in at output geometry.
			if err := g.needSpan(1, bat, row0, row0+rows); err != nil {
				return err
			}
		}
		return g.calcConv(l, in, row0, rows)
	case isa.LayerPool:
		if in.Op != isa.OpCalcF {
			return fmt.Errorf("pool layers use a single CALC_F per blob")
		}
		g.calcPool(l, in, row0, rows)
		return nil
	case isa.LayerAdd:
		if in.Op != isa.OpCalcF {
			return fmt.Errorf("add layers use a single CALC_F per blob")
		}
		if err := g.needRows(1, bat, l, row0, rows); err != nil {
			return err
		}
		g.calcAdd(l, in, row0, rows)
		return nil
	}
	return fmt.Errorf("unknown layer op %v", l.Op)
}

// in8 reads one int8 input sample, or 0 outside the featuremap (padding).
func (g *interp) in8(base uint32, c, y, x, h, w int) int32 {
	if y < 0 || y >= h || x < 0 || x >= w {
		return 0
	}
	return int32(int8(g.arena[int(base)+(c*h+y)*w+x]))
}

// calcConv accumulates one input-channel group's contribution to the
// accumulator tile (CALC_I) and, on CALC_F, requantizes the finished group
// into the finals tile — per output pixel, with no clipping shortcuts.
func (g *interp) calcConv(l *isa.LayerInfo, in isa.Instruction, row0, rows int) error {
	if g.wLayer != int(in.Layer) || g.wOG != int(in.OutG) {
		return fmt.Errorf("weights for layer %d og %d not loaded (have %d/%d)", in.Layer, in.OutG, g.wLayer, g.wOG)
	}
	oc0 := int(in.OutG) * g.p.ParaOut
	oCnt := groupChannels(l.OutC, g.p.ParaOut, int(in.OutG))
	if oCnt <= 0 {
		return fmt.Errorf("calc beyond output channels (og=%d outC=%d)", in.OutG, l.OutC)
	}
	depthwise := l.Groups == l.InC && l.Groups > 1
	crow0, crows := l.ConvRows(row0, rows)
	convW := l.ConvW()
	bat := int(in.Bat)
	inAddr := l.InAddr + uint32(bat*l.InPlane())

	if in.InG == 0 {
		g.accLayer, g.accTile, g.accOG, g.accBat = int(in.Layer), int(in.Tile), int(in.OutG), bat
		g.accRow0, g.accRows = row0, rows
		g.acc = make([]int32, oCnt*crows*convW)
		g.accOK = true
	} else if !g.accOK || g.accLayer != int(in.Layer) || g.accTile != int(in.Tile) || g.accOG != int(in.OutG) || g.accBat != bat {
		return fmt.Errorf("accumulator tile mismatch: have l%d t%d og%d b%d valid=%v, want l%d t%d og%d b%d",
			g.accLayer, g.accTile, g.accOG, g.accBat, g.accOK, in.Layer, in.Tile, in.OutG, bat)
	}

	// Input channels this CALC covers.
	ic0, ic1 := 0, 0
	if !depthwise {
		ic0 = int(in.InG) * g.p.ParaIn
		ic1 = ic0 + g.p.ParaIn
		if ic1 > l.InC {
			ic1 = l.InC
		}
		if ic1 <= ic0 {
			return fmt.Errorf("calc beyond input channels (ig=%d inC=%d)", in.InG, l.InC)
		}
	}
	wpo := l.InC * l.KH * l.KW // weights per output channel
	if depthwise {
		wpo = l.KH * l.KW
	}
	for o := 0; o < oCnt; o++ {
		oc := oc0 + o
		for r := 0; r < crows; r++ {
			oy := crow0 + r
			for ox := 0; ox < convW; ox++ {
				var sum int32
				if depthwise {
					for ky := 0; ky < l.KH; ky++ {
						for kx := 0; kx < l.KW; kx++ {
							sum += g.in8(inAddr, oc, oy*l.Stride+ky-l.Pad, ox*l.Stride+kx-l.Pad, l.InH, l.InW) *
								int32(g.weights[o*wpo+ky*l.KW+kx])
						}
					}
				} else {
					for ic := ic0; ic < ic1; ic++ {
						for ky := 0; ky < l.KH; ky++ {
							for kx := 0; kx < l.KW; kx++ {
								sum += g.in8(inAddr, ic, oy*l.Stride+ky-l.Pad, ox*l.Stride+kx-l.Pad, l.InH, l.InW) *
									int32(g.weights[o*wpo+(ic*l.KH+ky)*l.KW+kx])
							}
						}
					}
				}
				g.acc[(o*crows+r)*convW+ox] += sum
			}
		}
	}
	if in.Op != isa.OpCalcF {
		return nil
	}

	// CALC_F epilogue: bias, shift, ReLU, saturate; max-pool the fp x fp
	// window when pooling is fused into the layer.
	g.ensureFinals(l, in, row0, rows)
	fp := l.FusedPool
	if fp <= 1 {
		fp = 1
	}
	for o := 0; o < oCnt; o++ {
		oc := oc0 + o
		for r := 0; r < rows; r++ {
			for ox := 0; ox < l.OutW; ox++ {
				m := int8(-128)
				for py := 0; py < fp; py++ {
					for px := 0; px < fp; px++ {
						a := g.acc[(o*(rows*fp)+r*fp+py)*convW+ox*fp+px]
						if v := quant.Requantize(a, g.bias[o], l.Shift, l.ReLU); v > m {
							m = v
						}
					}
				}
				if l.FusedAdd {
					// Fused residual epilogue: add the aligned residual pixel
					// exactly as a standalone Add layer reading this layer's
					// requantized output back from DDR would.
					resAddr := int(l.In2Addr) + bat*l.OutPlane() + (oc*l.OutH+row0+r)*l.OutW + ox
					m = quant.SaturateAdd(m, int8(g.arena[resAddr])>>l.AddShift, l.AddReLU)
				}
				g.fin[(oc*rows+r)*l.OutW+ox] = m
			}
		}
	}
	g.finDone[in.OutG] = true
	g.accOK = false
	return nil
}

func (g *interp) calcPool(l *isa.LayerInfo, in isa.Instruction, row0, rows int) {
	g.ensureFinals(l, in, row0, rows)
	batOff := int(in.Bat) * l.InPlane()
	oc0 := int(in.OutG) * g.p.ParaOut
	oc1 := oc0 + groupChannels(l.OutC, g.p.ParaOut, int(in.OutG))
	for oc := oc0; oc < oc1; oc++ {
		for r := 0; r < rows; r++ {
			oy := row0 + r
			for ox := 0; ox < l.OutW; ox++ {
				m := int8(-128)
				for ky := 0; ky < l.KH; ky++ {
					for kx := 0; kx < l.KW; kx++ {
						iy, ix := oy*l.Stride+ky, ox*l.Stride+kx
						if iy >= l.InH || ix >= l.InW {
							continue
						}
						if v := int8(g.arena[int(l.InAddr)+batOff+(oc*l.InH+iy)*l.InW+ix]); v > m {
							m = v
						}
					}
				}
				g.fin[(oc*rows+r)*l.OutW+ox] = m
			}
		}
	}
	g.finDone[in.OutG] = true
}

func (g *interp) calcAdd(l *isa.LayerInfo, in isa.Instruction, row0, rows int) {
	g.ensureFinals(l, in, row0, rows)
	batOff := int(in.Bat) * l.InPlane()
	oc0 := int(in.OutG) * g.p.ParaOut
	oc1 := oc0 + groupChannels(l.OutC, g.p.ParaOut, int(in.OutG))
	for oc := oc0; oc < oc1; oc++ {
		for r := 0; r < rows; r++ {
			y := row0 + r
			for x := 0; x < l.OutW; x++ {
				a := int8(g.arena[int(l.InAddr)+batOff+(oc*l.InH+y)*l.InW+x])
				b := int8(g.arena[int(l.In2Addr)+batOff+(oc*l.InH+y)*l.InW+x])
				g.fin[(oc*rows+r)*l.OutW+x] = quant.SaturateAdd(a, b>>l.Shift, l.ReLU)
			}
		}
	}
	g.finDone[in.OutG] = true
}

// ensureFinals (re)establishes the finals tile for the instruction's
// (layer, tile, batch element).
func (g *interp) ensureFinals(l *isa.LayerInfo, in isa.Instruction, row0, rows int) {
	if g.finOK && g.finLayer == int(in.Layer) && g.finTile == int(in.Tile) && g.finBat == int(in.Bat) {
		return
	}
	g.finLayer, g.finTile, g.finBat = int(in.Layer), int(in.Tile), int(in.Bat)
	g.finRow0, g.finRows = row0, rows
	g.fin = make([]int8, l.OutC*rows*l.OutW)
	g.finDone = make([]bool, l.NOut)
	g.finOK = true
}

// save commits the finals tile's out-channel groups [InG, OutG] to DDR at
// the instruction's batch element's output plane.
func (g *interp) save(l *isa.LayerInfo, in isa.Instruction) error {
	row0, rows := int(in.Row0), int(in.Rows)
	if rows == 0 {
		return nil
	}
	if !g.finOK || g.finLayer != int(in.Layer) || g.finTile != int(in.Tile) || g.finBat != int(in.Bat) {
		return fmt.Errorf("save of tile l%d t%d b%d but finals hold l%d t%d b%d (valid=%v)",
			in.Layer, in.Tile, in.Bat, g.finLayer, g.finTile, g.finBat, g.finOK)
	}
	c0 := int(in.InG) * g.p.ParaOut
	endC := (int(in.OutG) + 1) * g.p.ParaOut
	if endC > l.OutC {
		endC = l.OutC
	}
	if got, want := int(in.Len), (endC-c0)*rows*l.OutW; got != want {
		return fmt.Errorf("save window [%d,%d) length %d, instruction says %d", c0, endC, want, got)
	}
	batOff := int(in.Bat) * l.OutPlane()
	for oc := c0; oc < endC; oc++ {
		if oc < 0 || oc >= l.OutC {
			return fmt.Errorf("save channel %d outside layer channels %d", oc, l.OutC)
		}
		if !g.finDone[oc/g.p.ParaOut] {
			return fmt.Errorf("save of channel %d (group %d) before CALC_F finished it", oc, oc/g.p.ParaOut)
		}
		for r := 0; r < rows; r++ {
			for x := 0; x < l.OutW; x++ {
				g.arena[int(l.OutAddr)+batOff+(oc*l.OutH+row0+r)*l.OutW+x] = byte(g.fin[(oc*rows+r)*l.OutW+x])
			}
		}
	}
	return nil
}

// groupChannels returns how many channels out-channel group og actually
// covers (the last group may be partial).
func groupChannels(outC, paraOut, og int) int {
	n := outC - og*paraOut
	if n > paraOut {
		n = paraOut
	}
	return n
}
