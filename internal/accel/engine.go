package accel

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"inca/internal/isa"
	"inca/internal/trace"
)

// Engine executes instructions against a task's DDR arena. It always
// produces cycle counts; when given a non-nil arena it additionally executes
// the integer datapath bit-exactly, modelling the on-chip buffer state
// (input-row window, weight blob, accumulators, unsaved final results) whose
// loss on preemption the virtual instructions must repair. A functional run
// therefore *proves* that an interrupt schedule is correct: any missing
// restore surfaces as an execution error or a wrong output.
//
// The functional datapath has two implementations: the row-sliced kernels
// (kernels.go), optionally sharded across output channels by a persistent
// worker pool, and the original scalar reference path (reference.go). Both
// are bit-identical; the differential tests prove it continuously. Cycle
// accounting never depends on which path (or how many host workers) ran, nor
// on whether an arena is attached: the functional half only moves data, so a
// timing-only run ends on the same cycle as a functional one.
type Engine struct {
	Cfg Config

	// Trace, when non-nil, receives a KindHidden span whenever the prefetch
	// pipeline hides transfer cycles under compute — detail only the engine
	// knows. The IAU owns simulated time and keeps Trace.Now current; the
	// engine never emits the instruction spans themselves (the IAU does, so
	// cycles are counted exactly once).
	Trace *trace.Tracer

	// credit is the accumulated load/compute overlap (cycles of DMA work
	// hideable under compute already issued), capped by PrefetchBytes.
	credit uint64

	// Cycle accounting by class (never reset by Invalidate): where the
	// accelerator's time actually goes.
	calcCycles   uint64
	xferCycles   uint64
	hiddenCycles uint64 // transfer cycles hidden under compute

	// Cycle-model constants hoisted from Cfg at construction (DESIGN.md
	// §21). They feed the same xferCycles/calcCycles formulas Config's
	// XferCycles and InstrCycles evaluate: one model, read twice.
	cycleModel
	// calcPrice is the CALC price of layer calcLayer of calcProg, the layer
	// of the last CALC (a layer's CALCs come in runs, so one entry is the
	// whole cache). Host state only: Invalidate leaves it.
	calcProg  *isa.Program
	calcLayer int
	calcPrice uint64

	curProg  *isa.Program
	curLayer int

	// Resident input rows per (input selector, batch element). Batched plans
	// keep one window per element so a single LOAD_W serves every element's
	// CALC; single-image plans only ever touch index 0.
	win [2][]rowWindow

	wLayer, wOG int // identity of the loaded weight blob
	bias        []int32
	wdata       []byte // int8 weights within the loaded blob

	acc    accTile
	finals finalTile

	// Host-execution resources (no effect on simulated results or cycles).
	workers  int         // resolved from Cfg.Workers at construction
	pool     *workerPool // lazily created when workers > 1
	useRef   bool        // run the scalar reference datapath instead
	snapFree []*Snapshot // released snapshots awaiting reuse
	snapLive int         // snapshots handed out and not yet released
}

type rowWindow struct {
	lo, hi int
	valid  bool
}

type accTile struct {
	layer, tile, og, bat int
	row0, rows           int
	valid                bool
	data                 []int32 // oCnt x rows x OutW
}

type finalTile struct {
	layer, tile, bat int
	row0, rows       int
	valid            bool
	data             []int8 // OutC x rows x OutW
	ogDone           []bool
}

// NewEngine returns an engine for the given configuration.
func NewEngine(cfg Config) *Engine {
	e := &Engine{Cfg: cfg, cycleModel: modelOf(cfg), workers: resolveWorkers(cfg.Workers), useRef: forceReferenceConv}
	e.Invalidate()
	return e
}

// Close releases the engine's worker pool. It is safe to call multiple
// times and on engines that never sharded; engines that are simply dropped
// are cleaned up by a finalizer.
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.close()
		e.pool = nil
	}
	runtime.SetFinalizer(e, nil)
}

// DrainPipeline discards the outstanding prefetch overlap: a preemption
// boundary stops the MAC array, so the transfers that follow (backup,
// restore, or a cold restart) pay full price.
func (e *Engine) DrainPipeline() { e.credit = 0 }

// CycleStats reports where the accelerator's time went: MAC-array compute
// cycles, exposed (unhidden) transfer cycles, and transfer cycles hidden
// under compute by the prefetch pipeline.
func (e *Engine) CycleStats() (calc, xfer, hidden uint64) {
	return e.calcCycles, e.xferCycles, e.hiddenCycles
}

// Invalidate models the loss of all on-chip state when the accelerator
// switches tasks: the buffers and the prefetch credit both go.
func (e *Engine) Invalidate() {
	e.DrainPipeline()
	e.resetBuffers()
}

// resetBuffers forgets the on-chip buffers but keeps the prefetch credit. A
// layer change inside one task reuses the buffers while the DMA engine keeps
// streaming the next layer's loads under the last tile's compute, so only
// the IAU, which stops the MAC array, drains the credit.
func (e *Engine) resetBuffers() {
	e.curProg = nil
	e.curLayer = -1
	e.win[0] = e.win[0][:0]
	e.win[1] = e.win[1][:0]
	e.wLayer, e.wOG = -1, -1
	e.acc.valid = false
	e.finals.valid = false
}

// window returns the resident-row window for one (input selector, batch
// element), growing the per-selector slice on first touch.
func (e *Engine) window(which, bat int) *rowWindow {
	w := &e.win[which]
	for len(*w) <= bat {
		*w = append(*w, rowWindow{})
	}
	return &(*w)[bat]
}

// Snapshot captures the full on-chip state (CPU-like interrupt backup).
type Snapshot struct {
	curProg  *isa.Program
	curLayer int
	win      [2][]rowWindow
	wLayer   int
	wOG      int
	bias     []int32
	wdata    []byte
	acc      accTile
	finals   finalTile
}

// Snapshot deep-copies the mutable on-chip state. Released snapshots (see
// ReleaseSnapshot) are recycled, so steady-state CPU-like backup performs no
// heap allocation.
func (e *Engine) Snapshot() *Snapshot {
	e.snapLive++
	var s *Snapshot
	if n := len(e.snapFree); n > 0 {
		s = e.snapFree[n-1]
		e.snapFree[n-1] = nil
		e.snapFree = e.snapFree[:n-1]
	} else {
		s = new(Snapshot)
	}
	s.curProg, s.curLayer = e.curProg, e.curLayer
	s.win[0] = append(s.win[0][:0], e.win[0]...)
	s.win[1] = append(s.win[1][:0], e.win[1]...)
	s.wLayer, s.wOG = e.wLayer, e.wOG
	s.bias = append(s.bias[:0], e.bias...)
	// wdata references the read-only weight region of the arena.
	s.wdata = e.wdata
	accData, finData, finDone := s.acc.data, s.finals.data, s.finals.ogDone
	s.acc = e.acc
	s.acc.data = resizeI32(accData, len(e.acc.data))
	copy(s.acc.data, e.acc.data)
	s.finals = e.finals
	s.finals.data = resizeI8(finData, len(e.finals.data))
	copy(s.finals.data, e.finals.data)
	s.finals.ogDone = resizeBool(finDone, len(e.finals.ogDone))
	copy(s.finals.ogDone, e.finals.ogDone)
	return s
}

// Restore reinstates a snapshot (CPU-like interrupt recovery). The engine's
// existing tile buffers are reused, so recovery allocates only when the
// snapshot is larger than anything the engine has held before.
func (e *Engine) Restore(s *Snapshot) {
	e.curProg, e.curLayer = s.curProg, s.curLayer
	e.win[0] = append(e.win[0][:0], s.win[0]...)
	e.win[1] = append(e.win[1][:0], s.win[1]...)
	e.wLayer, e.wOG = s.wLayer, s.wOG
	e.bias = append(e.bias[:0], s.bias...)
	e.wdata = s.wdata
	accData, finData, finDone := e.acc.data, e.finals.data, e.finals.ogDone
	e.acc = s.acc
	e.acc.data = resizeI32(accData, len(s.acc.data))
	copy(e.acc.data, s.acc.data)
	e.finals = s.finals
	e.finals.data = resizeI8(finData, len(s.finals.data))
	copy(e.finals.data, s.finals.data)
	e.finals.ogDone = resizeBool(finDone, len(s.finals.ogDone))
	copy(e.finals.ogDone, s.finals.ogDone)
}

// ReleaseSnapshot returns a snapshot's buffers to the engine's free list so
// the next Snapshot reuses them instead of allocating. Call it once the
// snapshot has been restored (or abandoned); the snapshot must not be used
// afterwards.
func (e *Engine) ReleaseSnapshot(s *Snapshot) {
	if s == nil {
		return
	}
	e.snapLive--
	if len(e.snapFree) >= 4 {
		return
	}
	s.curProg = nil
	s.wdata = nil
	e.snapFree = append(e.snapFree, s)
}

// SnapshotBalance reports the engine's snapshot accounting: how many
// snapshots are live (handed out by Snapshot and not yet released) and how
// many sit on the free list. A quiesced IAU must end every run with zero
// live snapshots — the verification harness asserts this after each case to
// catch leaked CPU-like backups.
func (e *Engine) SnapshotBalance() (live, free int) {
	return e.snapLive, len(e.snapFree)
}

// Exec runs one instruction. arena is the task's DDR image (nil for
// timing-only runs). skipBytes is the channel-major prefix of a SAVE or
// Vir_SAVE region that the IAU marked as already stored; the transfer and
// the functional write both omit it. The returned cycle count reflects the
// reduced transfer.
func (e *Engine) Exec(arena []byte, p *isa.Program, in isa.Instruction, skipBytes uint32) (uint64, error) {
	return e.ExecRef(arena, p, &in, skipBytes)
}

// ExecRef is Exec on an instruction read in place (the IAU steps through
// p.Instrs without copying each 28-byte record). in is not retained.
func (e *Engine) ExecRef(arena []byte, p *isa.Program, in *isa.Instruction, skipBytes uint32) (uint64, error) {
	var cycles uint64
	switch in.Op {
	case isa.OpLoadW, isa.OpLoadD, isa.OpSave, isa.OpVirSave, isa.OpVirLoadD:
		length := in.Len
		if in.Op == isa.OpSave || in.Op == isa.OpVirSave {
			if skipBytes > length {
				return 0, fmt.Errorf("accel: skip %d exceeds save length %d", skipBytes, length)
			}
			length -= skipBytes
		}
		cycles = xferCycles(length, e.bpc, e.xferSetup)
		// Double-buffering hides transfer time under previously issued
		// compute, down to the DMA setup floor.
		if e.credit > 0 && cycles > 0 {
			floor := e.xferSetup
			hideable := uint64(0)
			if cycles > floor {
				hideable = cycles - floor
			}
			hidden := hideable
			if hidden > e.credit {
				hidden = e.credit
			}
			e.credit -= hidden
			cycles -= hidden
			e.hiddenCycles += hidden
			if e.Trace != nil && hidden > 0 {
				e.Trace.Span(trace.KindHidden, -1, e.Trace.Now, hidden, 0, in.Op.String())
			}
		}
		e.xferCycles += cycles
	case isa.OpCalcI, isa.OpCalcF:
		if p != e.calcProg || int(in.Layer) != e.calcLayer {
			e.calcProg, e.calcLayer = p, int(in.Layer)
			e.calcPrice = calcCycles(&p.Layers[in.Layer], e.calcPipe)
		}
		cycles = e.calcPrice
		e.credit += cycles
		if e.credit > e.creditCap {
			e.credit = e.creditCap
		}
		e.calcCycles += cycles
	}
	if arena == nil || in.Op == isa.OpEnd {
		return cycles, nil
	}
	if err := e.execFunctional(arena, p, *in, skipBytes); err != nil {
		return cycles, fmt.Errorf("accel: %s: %w", *in, err)
	}
	return cycles, nil
}

func (e *Engine) execFunctional(arena []byte, p *isa.Program, in isa.Instruction, skipBytes uint32) error {
	if e.curProg != p || int(in.Layer) != e.curLayer {
		// A new layer (or a new task's stream) reuses the on-chip buffers.
		e.resetBuffers()
		e.curProg = p
		e.curLayer = int(in.Layer)
	}
	l := &p.Layers[in.Layer]
	switch in.Op {
	case isa.OpLoadD:
		return e.loadRows(e.window(int(in.Which), int(in.Bat)), in, false)
	case isa.OpVirLoadD:
		if in.Which == 2 {
			// Weight restore: mid-batch interrupt points refetch the current
			// out-group's weight blob (no LOAD_W lies ahead of the resume pc).
			return e.loadWeights(arena, l, in)
		}
		return e.loadRows(e.window(int(in.Which), int(in.Bat)), in, true)
	case isa.OpLoadW:
		return e.loadWeights(arena, l, in)
	case isa.OpCalcI, isa.OpCalcF:
		return e.calc(arena, p, l, in)
	case isa.OpSave, isa.OpVirSave:
		return e.save(arena, p, l, in, skipBytes)
	}
	return nil
}

// loadRows updates the resident-row window of one input. Normal LOAD_D
// extends a contiguous window (delta loads reuse rows already on chip);
// Vir_LOAD_D re-establishes the window from scratch after a preemption.
func (e *Engine) loadRows(w *rowWindow, in isa.Instruction, restore bool) error {
	if in.Rows == 0 {
		return nil
	}
	lo, hi := int(in.Row0), int(in.Row0)+int(in.Rows)
	if restore || !w.valid || lo > w.hi || hi < w.lo {
		// Fresh window: first load of a layer, a restore after preemption,
		// or a disjoint segment (strided layers can skip rows entirely; the
		// line buffer keeps only the new segment).
		w.lo, w.hi, w.valid = lo, hi, true
		return nil
	}
	if hi > w.hi {
		w.hi = hi
	}
	if lo < w.lo {
		w.lo = lo
	}
	return nil
}

func (e *Engine) loadWeights(arena []byte, l *isa.LayerInfo, in isa.Instruction) error {
	oCnt := min(e.Cfg.ParaOut, l.OutC-int(in.OutG)*e.Cfg.ParaOut)
	if oCnt <= 0 {
		return fmt.Errorf("load_w beyond output channels (og=%d outC=%d)", in.OutG, l.OutC)
	}
	end := int(in.Addr) + int(in.Len)
	if end > len(arena) {
		return fmt.Errorf("load_w out of arena bounds [%d,%d) of %d", in.Addr, end, len(arena))
	}
	blob := arena[in.Addr:end]
	e.bias = e.bias[:0]
	for i := 0; i < oCnt; i++ {
		e.bias = append(e.bias, int32(binary.LittleEndian.Uint32(blob[i*4:])))
	}
	e.wdata = blob[oCnt*4:]
	e.wLayer, e.wOG = int(in.Layer), int(in.OutG)
	return nil
}

// needWindow checks that the input rows a CALC consumes are resident.
func (e *Engine) needWindow(which, bat int, l *isa.LayerInfo, row0, rows int) error {
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
		// The whole window falls in padding (Pad >= KH on the last stride
		// step): no input rows are required, so an empty or freshly restored
		// window is fine.
		return nil
	}
	return e.checkResident(which, bat, lo, hi)
}

// needResidual checks that a fused-residual window (OUTPUT geometry: the
// residual operand has the conv's output shape) is resident.
func (e *Engine) needResidual(bat int, row0, rows int) error {
	if rows == 0 {
		return nil
	}
	return e.checkResident(1, bat, row0, row0+rows)
}

func (e *Engine) checkResident(which, bat, lo, hi int) error {
	w := e.window(which, bat)
	if !w.valid || lo < w.lo || hi > w.hi {
		return fmt.Errorf("input rows [%d,%d) of element %d not resident (window valid=%v [%d,%d)) — missing restore after preemption?",
			lo, hi, bat, w.valid, w.lo, w.hi)
	}
	return nil
}

func (e *Engine) calc(arena []byte, p *isa.Program, l *isa.LayerInfo, in isa.Instruction) error {
	oc0 := int(in.OutG) * e.Cfg.ParaOut
	oc1 := min(oc0+e.Cfg.ParaOut, l.OutC)
	row0, rows := int(in.Row0), int(in.Rows)
	bat := int(in.Bat)
	if err := e.needWindow(0, bat, l, row0, rows); err != nil {
		return err
	}
	ref := forceReferenceConv || e.useRef
	switch l.Op {
	case isa.LayerConv:
		if l.FusedAdd && in.Op == isa.OpCalcF {
			if err := e.needResidual(bat, row0, rows); err != nil {
				return err
			}
		}
		if ref {
			return e.referenceCalcConv(arena, p, l, in, oc0, oc1, row0, rows)
		}
		return e.calcConv(arena, p, l, in, oc0, oc1, row0, rows)
	case isa.LayerPool:
		if ref {
			return e.referenceCalcPool(arena, p, l, in, oc0, oc1, row0, rows)
		}
		return e.calcPool(arena, p, l, in, oc0, oc1, row0, rows)
	case isa.LayerAdd:
		if err := e.needWindow(1, bat, l, row0, rows); err != nil {
			return err
		}
		if ref {
			return e.referenceCalcAdd(arena, p, l, in, oc0, oc1, row0, rows)
		}
		return e.calcAdd(arena, p, l, in, oc0, oc1, row0, rows)
	}
	return fmt.Errorf("unknown layer op %v", l.Op)
}

func (e *Engine) calcConv(arena []byte, p *isa.Program, l *isa.LayerInfo, in isa.Instruction, oc0, oc1, row0, rows int) error {
	if e.wLayer != int(in.Layer) || e.wOG != int(in.OutG) {
		return fmt.Errorf("weights for layer %d og %d not loaded (have %d/%d)", in.Layer, in.OutG, e.wLayer, e.wOG)
	}
	oCnt := oc1 - oc0
	bat := int(in.Bat)
	depthwise := l.Groups == l.InC && l.Groups > 1
	// Work happens at convolution resolution; fused pooling shrinks it only
	// at requantization time.
	crow0, crows := l.ConvRows(row0, rows)
	convW := l.ConvW()
	// Establish / verify the accumulator tile.
	if in.InG == 0 {
		e.acc = accTile{
			layer: int(in.Layer), tile: int(in.Tile), og: int(in.OutG), bat: bat,
			row0: row0, rows: rows, valid: true,
			data: resizeI32(e.acc.data, oCnt*crows*convW),
		}
		for i := range e.acc.data {
			e.acc.data[i] = 0
		}
	} else {
		if !e.acc.valid || e.acc.layer != int(in.Layer) || e.acc.tile != int(in.Tile) || e.acc.og != int(in.OutG) || e.acc.bat != bat {
			return fmt.Errorf("accumulator tile mismatch: have l%d t%d og%d b%d valid=%v, want l%d t%d og%d b%d",
				e.acc.layer, e.acc.tile, e.acc.og, e.acc.bat, e.acc.valid, in.Layer, in.Tile, in.OutG, bat)
		}
	}
	ic0, ic1 := 0, 0
	icCnt := 1
	if !depthwise {
		ic0 = int(in.InG) * e.Cfg.ParaIn
		ic1 = min(ic0+e.Cfg.ParaIn, l.InC)
		icCnt = ic1 - ic0
	}
	c := convCall{
		arena: arena, l: l, g: newConvGeom(l, convW),
		oc0: oc0, crow0: crow0, crows: crows,
		blockSz: crows * convW, depthwise: depthwise,
		ic0: ic0, ic1: ic1,
		wpo: weightsPerOC(l), khkw: l.KH * l.KW,
		planeSz: l.InH * l.InW, inBase: int(l.InAddr) + bat*l.InPlane(),
	}
	if shards := e.shardsFor(oCnt, c.blockSz*c.khkw*icCnt); shards > 1 {
		// The closure gets its own copy so the serial path below keeps the
		// call frame allocation-free.
		cc := c
		e.runShards(shards, oc0, oc1, func(a, b int) { e.convShard(&cc, a, b) })
	} else {
		e.convShard(&c, oc0, oc1)
	}
	if in.Op == isa.OpCalcF {
		e.ensureFinals(l, in, row0, rows)
		fp := l.FusedPool
		if fp <= 1 {
			fp = 1
		}
		q := requantCall{
			l: l, oc0: oc0, rows: rows, convW: convW, fp: fp,
			perChan: rows * l.OutW, blockSz: c.blockSz,
		}
		if l.FusedAdd {
			q.arena = arena
			q.resBase = int(l.In2Addr) + bat*l.OutPlane() + row0*l.OutW
		}
		if shards := e.shardsFor(oCnt, q.perChan*fp*fp); shards > 1 {
			qq := q
			e.runShards(shards, oc0, oc1, func(a, b int) { e.requantShard(&qq, a, b) })
		} else {
			e.requantShard(&q, oc0, oc1)
		}
		e.finals.ogDone[in.OutG] = true
		e.acc.valid = false
	}
	return nil
}

// convCall carries one CALC's resolved geometry to its channel shards.
type convCall struct {
	arena        []byte
	l            *isa.LayerInfo
	g            convGeom
	oc0          int // first channel of the accumulator tile
	crow0, crows int
	blockSz      int // per-channel accumulator block (crows x convW)
	depthwise    bool
	ic0, ic1     int
	wpo, khkw    int
	planeSz      int
	inBase       int
}

// convShard accumulates output channels [a,b) of one CALC.
func (e *Engine) convShard(c *convCall, a, b int) {
	for oc := a; oc < b; oc++ {
		wBase := (oc - c.oc0) * c.wpo
		out := e.acc.data[(oc-c.oc0)*c.blockSz : (oc-c.oc0+1)*c.blockSz]
		if c.depthwise {
			// Each output channel consumes its own input channel.
			plane := c.arena[c.inBase+oc*c.planeSz : c.inBase+(oc+1)*c.planeSz]
			convAccumChannel(out, plane, e.wdata[wBase:wBase+c.khkw], c.g, c.crow0, c.crows)
			continue
		}
		for ic := c.ic0; ic < c.ic1; ic++ {
			plane := c.arena[c.inBase+ic*c.planeSz : c.inBase+(ic+1)*c.planeSz]
			wOff := wBase + ic*c.khkw
			convAccumChannel(out, plane, e.wdata[wOff:wOff+c.khkw], c.g, c.crow0, c.crows)
		}
	}
}

// requantCall carries one CALC_F epilogue's geometry to its channel shards.
type requantCall struct {
	l                *isa.LayerInfo
	oc0              int
	rows, convW, fp  int
	perChan, blockSz int
	// Fused-residual epilogue: when arena is non-nil the residual operand of
	// channel oc streams from arena[resBase + oc*OutH*OutW : +perChan].
	arena   []byte
	resBase int
}

// requantShard requantizes (and fused-pools, and fused-residual-adds) output
// channels [a,b).
func (e *Engine) requantShard(q *requantCall, a, b int) {
	l := q.l
	for oc := a; oc < b; oc++ {
		dst := e.finals.data[oc*q.perChan : (oc+1)*q.perChan]
		acc := e.acc.data[(oc-q.oc0)*q.blockSz : (oc-q.oc0+1)*q.blockSz]
		requantChannel(dst, acc, e.bias[oc-q.oc0], l, q.rows, q.convW, q.fp)
		if q.arena != nil {
			res := q.arena[q.resBase+oc*l.OutH*l.OutW:]
			fusedAddChannel(dst, res[:len(dst)], l.AddShift, l.AddReLU)
		}
	}
}

func weightsPerOC(l *isa.LayerInfo) int {
	if l.Groups == l.InC && l.Groups > 1 {
		return l.KH * l.KW
	}
	return l.InC * l.KH * l.KW
}

func (e *Engine) calcPool(arena []byte, p *isa.Program, l *isa.LayerInfo, in isa.Instruction, oc0, oc1, row0, rows int) error {
	e.ensureFinals(l, in, row0, rows)
	bat := int(in.Bat)
	perChan := rows * l.OutW
	if shards := e.shardsFor(oc1-oc0, perChan*l.KH*l.KW); shards > 1 {
		e.runShards(shards, oc0, oc1, func(a, b int) { e.poolShard(arena, l, row0, rows, bat, a, b) })
	} else {
		e.poolShard(arena, l, row0, rows, bat, oc0, oc1)
	}
	e.finals.ogDone[in.OutG] = true
	return nil
}

// poolShard evaluates output channels [a,b) of a standalone pool CALC.
func (e *Engine) poolShard(arena []byte, l *isa.LayerInfo, row0, rows, bat, a, b int) {
	planeSz := l.InH * l.InW
	inBase := int(l.InAddr) + bat*l.InPlane()
	perChan := rows * l.OutW
	for oc := a; oc < b; oc++ {
		plane := arena[inBase+oc*planeSz : inBase+(oc+1)*planeSz]
		dst := e.finals.data[oc*perChan : (oc+1)*perChan]
		poolChannel(dst, plane, l, row0, rows)
	}
}

func (e *Engine) calcAdd(arena []byte, p *isa.Program, l *isa.LayerInfo, in isa.Instruction, oc0, oc1, row0, rows int) error {
	e.ensureFinals(l, in, row0, rows)
	bat := int(in.Bat)
	perChan := rows * l.OutW
	if shards := e.shardsFor(oc1-oc0, perChan); shards > 1 {
		e.runShards(shards, oc0, oc1, func(a, b int) { e.addShard(arena, l, row0, rows, bat, a, b) })
	} else {
		e.addShard(arena, l, row0, rows, bat, oc0, oc1)
	}
	e.finals.ogDone[in.OutG] = true
	return nil
}

// addShard evaluates output channels [a,b) of a residual-add CALC.
func (e *Engine) addShard(arena []byte, l *isa.LayerInfo, row0, rows, bat, a, b int) {
	perChan := rows * l.OutW
	span := (rows-1)*l.InW + l.OutW
	batOff := bat * l.InPlane()
	for oc := a; oc < b; oc++ {
		aBase := int(l.InAddr) + batOff + (oc*l.InH+row0)*l.InW
		bBase := int(l.In2Addr) + batOff + (oc*l.InH+row0)*l.InW
		dst := e.finals.data[oc*perChan : (oc+1)*perChan]
		addChannel(dst, arena[aBase:aBase+span], arena[bBase:bBase+span], l, rows)
	}
}

// ensureFinals (re)establishes the final-results tile buffer for the
// instruction's (layer, tile, batch element). The tile holds one element:
// batched plans save each element's window before moving to the next, so
// switching elements may recycle the buffer.
func (e *Engine) ensureFinals(l *isa.LayerInfo, in isa.Instruction, row0, rows int) {
	if e.finals.valid && e.finals.layer == int(in.Layer) && e.finals.tile == int(in.Tile) && e.finals.bat == int(in.Bat) {
		return
	}
	nOut := l.NOut
	e.finals = finalTile{
		layer: int(in.Layer), tile: int(in.Tile), bat: int(in.Bat),
		row0: row0, rows: rows, valid: true,
		data:   resizeI8(e.finals.data, l.OutC*rows*l.OutW),
		ogDone: resizeBool(e.finals.ogDone, nOut),
	}
	for i := range e.finals.ogDone {
		e.finals.ogDone[i] = false
	}
}

// save writes the tile's final results to DDR, skipping the channel-major
// prefix already stored by earlier Vir_SAVEs of the same SaveID.
func (e *Engine) save(arena []byte, p *isa.Program, l *isa.LayerInfo, in isa.Instruction, skipBytes uint32) error {
	row0, rows := int(in.Row0), int(in.Rows)
	if rows == 0 {
		return nil
	}
	perChan := rows * l.OutW
	if int(skipBytes)%perChan != 0 {
		return fmt.Errorf("save skip %d not channel-aligned (per-channel %d)", skipBytes, perChan)
	}
	// The save window covers out-channel groups [InG, OutG]; skipBytes is a
	// channel-major prefix of that window already stored by Vir_SAVEs.
	c0 := int(in.InG) * e.Cfg.ParaOut
	endC := min((int(in.OutG)+1)*e.Cfg.ParaOut, l.OutC)
	if got, want := int(in.Len), (endC-c0)*perChan; got != want {
		return fmt.Errorf("save window [%d,%d) length %d, instruction says %d", c0, endC, want, got)
	}
	skipC := c0 + int(skipBytes)/perChan
	if skipC >= endC {
		return nil // everything already stored
	}
	if !e.finals.valid || e.finals.layer != int(in.Layer) || e.finals.tile != int(in.Tile) || e.finals.bat != int(in.Bat) {
		return fmt.Errorf("save of tile l%d t%d b%d but finals hold l%d t%d b%d (valid=%v)",
			in.Layer, in.Tile, in.Bat, e.finals.layer, e.finals.tile, e.finals.bat, e.finals.valid)
	}
	batOff := int(in.Bat) * l.OutPlane()
	for oc := skipC; oc < endC; oc++ {
		if oc < 0 || oc >= l.OutC {
			return fmt.Errorf("save channel %d outside layer channels %d", oc, l.OutC)
		}
		og := oc / e.Cfg.ParaOut
		if !e.finals.ogDone[og] {
			return fmt.Errorf("save of channel %d (group %d) before CALC_F finished it", oc, og)
		}
		dst := arena[int(l.OutAddr)+batOff+(oc*l.OutH+row0)*l.OutW:]
		src := e.finals.data[oc*perChan : (oc+1)*perChan]
		for i, v := range src {
			dst[i] = byte(v)
		}
	}
	return nil
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

func resizeI8(s []int8, n int) []int8 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int8, n)
}

func resizeBool(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}
