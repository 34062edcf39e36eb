package compiler

import "inca/internal/isa"

// emitter walks the layer table and produces the original ISA stream.
//
// Tiling scheme per layer (matching §4.1 of the paper):
//
//	for each height tile t (Para_height output rows):
//	  LOAD_D   — input rows for the tile; tiles after the first load only
//	             the rows not already resident (line-buffer reuse)
//	  for each output-channel group og:            ┐
//	    LOAD_W(og)                                 │ one CalcBlob
//	    CALC_I(og, ig)  for ig < NIn-1             │
//	    CALC_F(og, NIn-1)                          ┘
//	    SAVE every BlobsPerSave blobs (and at tile end) — stores the
//	    finished groups' rows; each SAVE window carries one SaveID
type emitter struct {
	prog   *isa.Program
	opt    Options
	saveID uint32
}

// reserve sizes prog.Instrs from a per-layer upper bound so emission never
// regrows it: a tile issues at most three LOAD_D per batch element, and per
// out-channel group and element at most NIn CALCs plus a LOAD_W and a SAVE.
func (e *emitter) reserve() {
	batch := e.prog.BatchN()
	n := 1 // END
	for i := range e.prog.Layers {
		l := &e.prog.Layers[i]
		n += l.NTiles * (3*batch + l.NOut*batch*(l.NIn+2))
	}
	e.prog.Instrs = make([]isa.Instruction, 0, n)
}

func (e *emitter) add(in isa.Instruction) {
	e.prog.Instrs = append(e.prog.Instrs, in)
}

// inputWindow returns the input-row interval [lo, hi) a tile of output rows
// [row0, row0+rows) consumes, clamped to the featuremap. For fused-pool
// layers the output rows are pooled rows, each consuming FusedPool
// convolution rows.
func inputWindow(l *isa.LayerInfo, row0, rows int) (lo, hi int) {
	c0, cn := l.ConvRows(row0, rows)
	lo = c0*l.Stride - l.Pad
	hi = (c0+cn-1)*l.Stride - l.Pad + l.KH
	if lo < 0 {
		lo = 0
	}
	if hi > l.InH {
		hi = l.InH
	}
	return lo, hi
}

// saveWindowBytes returns the byte count of a SAVE covering out-channel
// groups [g0, g1] (inclusive) for `rows` output rows.
func saveWindowBytes(l *isa.LayerInfo, paraOut, g0, g1, rows int) uint32 {
	c0 := g0 * paraOut
	c1 := min((g1+1)*paraOut, l.OutC)
	return uint32((c1 - c0) * rows * l.OutW)
}

func (e *emitter) emitLayer(li int) {
	l := &e.prog.Layers[li]
	ph := e.prog.ParaHeight
	batch := e.prog.BatchN()
	blobsPerSave := e.opt.BlobsPerSave
	if blobsPerSave <= 0 {
		blobsPerSave = l.NOut // one SAVE per tile
	}
	inPlane := uint32(l.InPlane())
	outPlane := uint32(l.OutPlane())
	prevHi := -1
	for t := 0; t < l.NTiles; t++ {
		row0 := t * ph
		rows := min(ph, l.OutH-row0)
		lo, hi := inputWindow(l, row0, rows)

		// Delta load: only rows not already resident from the previous tile.
		// Batched plans keep one resident window per element, so the delta is
		// the same for every element.
		ld0 := lo
		if prevHi >= 0 && prevHi > ld0 {
			ld0 = prevHi
		}
		for b := 0; b < batch; b++ {
			if hi > ld0 {
				e.add(isa.Instruction{
					Op: isa.OpLoadD, Layer: uint16(li), Which: 0, Tile: uint16(t), Bat: uint16(b),
					Row0: uint16(ld0), Rows: uint16(hi - ld0),
					Addr: l.InAddr + uint32(b)*inPlane, Len: uint32(l.InC * (hi - ld0) * l.InW),
				})
				if l.Op == isa.LayerAdd {
					e.add(isa.Instruction{
						Op: isa.OpLoadD, Layer: uint16(li), Which: 1, Tile: uint16(t), Bat: uint16(b),
						Row0: uint16(ld0), Rows: uint16(hi - ld0),
						Addr: l.In2Addr + uint32(b)*inPlane, Len: uint32(l.InC * (hi - ld0) * l.InW),
					})
				}
			}
			if l.FusedAdd {
				// The fused residual operand has the conv's OUTPUT geometry;
				// tiles never share output rows, so each tile loads its full
				// residual range (no delta).
				e.add(isa.Instruction{
					Op: isa.OpLoadD, Layer: uint16(li), Which: 1, Tile: uint16(t), Bat: uint16(b),
					Row0: uint16(row0), Rows: uint16(rows),
					Addr: l.In2Addr + uint32(b)*outPlane, Len: uint32(l.OutC * rows * l.OutW),
				})
			}
		}
		prevHi = hi

		if batch == 1 {
			// Single-image plan: the classic CalcBlob/BlobsPerSave schedule
			// (bit-identical to pre-batch streams).
			gStart := 0
			saveID := e.saveID
			e.saveID++
			for og := 0; og < l.NOut; og++ {
				e.emitBlob(li, l, t, og, row0, rows, 0, saveID)
				if og-gStart+1 >= blobsPerSave || og == l.NOut-1 {
					e.add(isa.Instruction{
						Op: isa.OpSave, Layer: uint16(li), Tile: uint16(t),
						InG: uint16(gStart), OutG: uint16(og),
						Row0: uint16(row0), Rows: uint16(rows), SaveID: saveID,
						Addr: l.OutAddr, Len: saveWindowBytes(l, e.prog.ParaOut, gStart, og, rows),
					})
					gStart = og + 1
					saveID = e.saveID
					e.saveID++
				}
			}
			continue
		}

		// Batched plan: one LOAD_W per out-channel group serves the whole
		// batch (the amortization this mode exists for); each element's
		// CALC_F is immediately followed by its own SAVE because the output
		// tile buffer holds one element at a time.
		for og := 0; og < l.NOut; og++ {
			for b := 0; b < batch; b++ {
				saveID := e.saveID
				e.saveID++
				e.emitBlob(li, l, t, og, row0, rows, b, saveID)
				e.add(isa.Instruction{
					Op: isa.OpSave, Layer: uint16(li), Tile: uint16(t), Bat: uint16(b),
					InG: uint16(og), OutG: uint16(og),
					Row0: uint16(row0), Rows: uint16(rows), SaveID: saveID,
					Addr: l.OutAddr + uint32(b)*outPlane, Len: saveWindowBytes(l, e.prog.ParaOut, og, og, rows),
				})
			}
		}
	}
}

// emitBlob emits one CalcBlob: the LOAD_W (for the first element only — the
// weights stay resident across the batch) followed by the CALC_I/CALC_F
// sequence over the input-channel groups.
func (e *emitter) emitBlob(li int, l *isa.LayerInfo, t, og, row0, rows, b int, saveID uint32) {
	if l.Op == isa.LayerConv && b == 0 {
		addr, length := WeightBlob(l, e.prog.ParaOut, og)
		e.add(isa.Instruction{
			Op: isa.OpLoadW, Layer: uint16(li), OutG: uint16(og), Tile: uint16(t),
			Addr: addr, Len: length,
		})
	}
	for ig := 0; ig < l.NIn; ig++ {
		op := isa.OpCalcI
		if ig == l.NIn-1 {
			op = isa.OpCalcF
		}
		e.add(isa.Instruction{
			Op: op, Layer: uint16(li), InG: uint16(ig), OutG: uint16(og),
			Tile: uint16(t), Row0: uint16(row0), Rows: uint16(rows), Bat: uint16(b),
			SaveID: saveID,
		})
	}
}
