package isa

import "fmt"

// Relocate returns a copy of the program with every DDR address shifted by
// base. This models the IAU's per-slot InputOffset/OutputOffset registers
// (Fig. 3): instruction streams are compiled position-independent within a
// task-relative address space, and software places each task's data at a
// base offset in the shared DDR. Relocating lets several tasks coexist in
// one physical address space without recompilation.
func Relocate(p *Program, base uint32) (*Program, error) {
	if base%uint32(regionAlign) != 0 {
		return nil, fmt.Errorf("isa: relocation base %d not %d-byte aligned", base, regionAlign)
	}
	if uint64(base)+uint64(p.DDRBytes) > (1 << 32) {
		return nil, fmt.Errorf("isa: relocation base %d overflows the 32-bit address space (arena %d bytes)", base, p.DDRBytes)
	}
	q := &Program{
		Name:        p.Name,
		ParaIn:      p.ParaIn,
		ParaOut:     p.ParaOut,
		ParaHeight:  p.ParaHeight,
		Batch:       p.Batch,
		Layers:      make([]LayerInfo, len(p.Layers)),
		Instrs:      make([]Instruction, len(p.Instrs)),
		DDRBytes:    base + p.DDRBytes,
		Weights:     p.Weights,
		WeightsAddr: p.WeightsAddr + base,
		InputAddr:   p.InputAddr + base,
		InputBytes:  p.InputBytes,
		OutputAddr:  p.OutputAddr + base,
		OutputBytes: p.OutputBytes,
		// The proven response bound depends on transfer lengths and group
		// shapes, never on addresses, so relocation preserves it verbatim
		// (progcheck re-derives the same value at any slot base).
		ResponseBound: p.ResponseBound,
	}
	copy(q.Layers, p.Layers)
	for i := range q.Layers {
		l := &q.Layers[i]
		l.InAddr += base
		l.OutAddr += base
		if l.Op == LayerAdd || l.FusedAdd {
			l.In2Addr += base
		}
		if l.Op == LayerConv {
			l.WAddr += base
		}
	}
	copy(q.Instrs, p.Instrs)
	for i := range q.Instrs {
		in := &q.Instrs[i]
		switch in.Op {
		case OpLoadW, OpLoadD, OpSave, OpVirSave, OpVirLoadD:
			if in.Len > 0 || in.Addr > 0 {
				in.Addr += base
			}
		}
	}
	return q, nil
}

// regionAlign mirrors the compiler's DDR region alignment.
const regionAlign = 64

// Link packs several tasks' programs into one shared physical address
// space, relocating each to its own base offset — what system software does
// before configuring the IAU's per-slot offset registers. The returned
// programs all report the same DDRBytes (the full shared image) so a single
// arena serves every task.
func Link(progs []*Program) ([]*Program, uint32, error) {
	if len(progs) == 0 {
		return nil, 0, fmt.Errorf("isa: nothing to link")
	}
	var total uint32
	out := make([]*Program, len(progs))
	for i, p := range progs {
		r, err := Relocate(p, total)
		if err != nil {
			return nil, 0, fmt.Errorf("isa: linking %q at %d: %w", p.Name, total, err)
		}
		out[i] = r
		total += (p.DDRBytes + regionAlign - 1) &^ (regionAlign - 1)
	}
	for _, r := range out {
		r.DDRBytes = total
	}
	return out, total, nil
}

// BuildLinkedArena materialises the shared DDR image for linked programs,
// placing every task's weight image at its relocated base.
func BuildLinkedArena(progs []*Program) ([]byte, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("isa: no programs")
	}
	size := progs[0].DDRBytes
	arena := make([]byte, size)
	for _, p := range progs {
		if p.DDRBytes != size {
			return nil, fmt.Errorf("isa: program %q arena %d != shared %d (not linked together?)", p.Name, p.DDRBytes, size)
		}
		if len(p.Weights) == 0 {
			return nil, fmt.Errorf("isa: program %q carries no weight image (compile with EmitWeights)", p.Name)
		}
		if int(p.WeightsAddr)+len(p.Weights) > len(arena) {
			return nil, fmt.Errorf("isa: program %q weights exceed the shared arena", p.Name)
		}
		copy(arena[p.WeightsAddr:], p.Weights)
	}
	return arena, nil
}
