// Package accel simulates the instruction-driven CNN accelerator: a
// calibrated cycle model for every instruction, and an optional functional
// engine that executes the integer datapath bit-exactly against a DDR arena,
// including the on-chip buffer state that interrupts destroy and the virtual
// instructions restore.
//
// The cycle model is calibrated against the paper's own measurements at
// 300 MHz (see DESIGN.md §6): a CALC instruction covering Para_height output
// lines costs ≈ OutW·KH·KW cycles; LOAD/SAVE transfers cost bytes divided by
// the effective DDR bandwidth.
package accel

import (
	"fmt"

	"inca/internal/compiler"
	"inca/internal/isa"
)

// Config describes one accelerator instance.
type Config struct {
	Name string

	// Parallelism (must match the programs run on it).
	ParaIn, ParaOut, ParaHeight int

	// FreqMHz is the accelerator and IAU clock (the paper uses 300 MHz).
	FreqMHz int

	// DDRBandwidthGBps is the effective DDR bandwidth available to the
	// accelerator's load/save engine.
	DDRBandwidthGBps float64

	// CalcPipeCycles is the fixed pipeline fill/drain overhead per CALC.
	CalcPipeCycles int

	// XferSetupCycles is the fixed DDR burst setup cost per LOAD/SAVE.
	XferSetupCycles int

	// PrefetchBytes bounds the load/compute overlap: the DMA engine can run
	// this far ahead of the MAC array (ping-pong buffering), so transfer
	// time issued while compute is in flight is hidden up to this depth.
	// Preemption drains the pipeline — interrupt backup/restore transfers
	// are never discounted.
	PrefetchBytes int

	// FetchCycles is the IAU cost of fetching (and discarding) one virtual
	// instruction in the uninterrupted path — the source of the paper's
	// sub-0.3 % degradation.
	FetchCycles int

	// On-chip buffer capacities; their sum is what a CPU-like interrupt has
	// to spill and refill.
	InputBufBytes  int
	OutputBufBytes int
	WeightBufBytes int

	// Workers bounds the host threads the functional datapath may use to
	// execute one CALC across output channels. 0 means GOMAXPROCS; 1 forces
	// the serial path. Output channels are partitioned statically and every
	// worker writes a disjoint region, so results are byte-identical at any
	// value — only wall-clock changes. Cycle accounting is untouched: the
	// simulated MAC array is the same hardware no matter how many host
	// threads emulate it.
	Workers int
}

// Big returns the paper's large Angel-Eye configuration:
// Para=(16,16,8) at 300 MHz with ~2.2 MB of on-chip caches.
func Big() Config {
	return Config{
		Name:   "angel-eye-big",
		ParaIn: 16, ParaOut: 16, ParaHeight: 8,
		FreqMHz:          300,
		DDRBandwidthGBps: 6.4,
		CalcPipeCycles:   4,
		XferSetupCycles:  12,
		FetchCycles:      1,
		PrefetchBytes:    768 << 10,
		InputBufBytes:    1 << 20,
		OutputBufBytes:   1 << 20,
		WeightBufBytes:   192 << 10,
	}
}

// Small returns the paper's small configuration: Para=(8,8,4).
func Small() Config {
	c := Big()
	c.Name = "angel-eye-small"
	c.ParaIn, c.ParaOut, c.ParaHeight = 8, 8, 4
	c.PrefetchBytes = 384 << 10
	c.InputBufBytes = 512 << 10
	c.OutputBufBytes = 512 << 10
	c.WeightBufBytes = 96 << 10
	return c
}

// Serving returns the small configuration on a bandwidth-starved memory
// system (shared LPDDR on a busy MPSoC, ~1.6 GB/s effective): the regime
// batched plans target, where weight traffic dominates small featuremaps and
// the per-tile LOAD_W amortization across the batch pays off directly.
func Serving() Config {
	c := Small()
	c.Name = "angel-eye-serving"
	c.DDRBandwidthGBps = 1.6
	c.PrefetchBytes = 96 << 10
	return c
}

// Validate checks the configuration for usable values.
func (c Config) Validate() error {
	if c.ParaIn <= 0 || c.ParaOut <= 0 || c.ParaHeight <= 0 {
		return fmt.Errorf("accel: invalid parallelism (%d,%d,%d)", c.ParaIn, c.ParaOut, c.ParaHeight)
	}
	if c.FreqMHz <= 0 {
		return fmt.Errorf("accel: invalid frequency %d MHz", c.FreqMHz)
	}
	if c.DDRBandwidthGBps <= 0 {
		return fmt.Errorf("accel: invalid DDR bandwidth %g GB/s", c.DDRBandwidthGBps)
	}
	if c.Workers < 0 {
		return fmt.Errorf("accel: invalid worker count %d", c.Workers)
	}
	return nil
}

// CompilerOptions returns compilation options matching this accelerator,
// with the config itself as the placement cost model so compiled programs
// carry a ResponseBound.
func (c Config) CompilerOptions() compiler.Options {
	return compiler.Options{
		ParaIn: c.ParaIn, ParaOut: c.ParaOut, ParaHeight: c.ParaHeight,
		BlobsPerSave:   2, // Fig. 4's save window
		InputBufBytes:  c.InputBufBytes,
		OutputBufBytes: c.OutputBufBytes,
		WeightBufBytes: c.WeightBufBytes,
		Cost:           c,
		// Every config-driven compile self-verifies through the
		// internal/progcheck static checker (layout, restore groups,
		// reservations, resume replays, bound re-derivation).
		Check: true,
	}
}

// VirtualFetchCycles is the IAU overhead of skipping one virtual instruction
// on the uninterrupted path (compiler.CostModel).
func (c Config) VirtualFetchCycles() uint64 { return uint64(c.FetchCycles) }

// BytesPerCycle is the DDR transfer rate in bytes per accelerator cycle.
func (c Config) BytesPerCycle() float64 {
	return c.DDRBandwidthGBps * 1e9 / (float64(c.FreqMHz) * 1e6)
}

// XferCycles returns the cycle cost of moving n bytes to/from DDR.
func (c Config) XferCycles(n uint32) uint64 {
	return xferCycles(n, c.BytesPerCycle(), uint64(c.XferSetupCycles))
}

// xferCycles is the transfer price: n bytes at bpc bytes per cycle plus the
// burst setup. The engine calls it with both constants hoisted; it must stay
// a division by that bpc (a reciprocal multiply is not bit-identical).
func xferCycles(n uint32, bpc float64, setup uint64) uint64 {
	if n == 0 {
		return 0
	}
	return uint64(float64(n)/bpc) + setup + 1
}

// TotalBufferBytes is the on-chip cache volume a CPU-like interrupt spills.
func (c Config) TotalBufferBytes() int {
	return c.InputBufBytes + c.OutputBufBytes + c.WeightBufBytes
}

// CyclesToSeconds converts a cycle count at this clock to seconds.
func (c Config) CyclesToSeconds(cycles uint64) float64 {
	return float64(cycles) / (float64(c.FreqMHz) * 1e6)
}

// CyclesToMicros converts cycles to microseconds.
func (c Config) CyclesToMicros(cycles uint64) float64 {
	return c.CyclesToSeconds(cycles) * 1e6
}

// SecondsToCycles converts seconds of wall time to cycles.
func (c Config) SecondsToCycles(s float64) uint64 {
	return uint64(s * float64(c.FreqMHz) * 1e6)
}

// InstrCycles returns the duration of one instruction on this accelerator.
// Virtual instructions are priced as the transfers they perform when an
// interrupt materialises them; the cheaper skip path is priced separately by
// the IAU via FetchCycles.
func (c Config) InstrCycles(p *isa.Program, in isa.Instruction) uint64 {
	switch in.Op {
	case isa.OpLoadW, isa.OpLoadD, isa.OpSave, isa.OpVirSave, isa.OpVirLoadD:
		return c.XferCycles(in.Len)
	case isa.OpCalcI, isa.OpCalcF:
		return calcCycles(&p.Layers[in.Layer], c.CalcPipeCycles)
	default:
		return 0
	}
}

// calcCycles is the price of one CALC of layer l. It depends on the layer
// alone, so the engine keeps the current layer's instead of re-deriving it.
func calcCycles(l *isa.LayerInfo, pipe int) uint64 {
	switch l.Op {
	case isa.LayerConv:
		// A fused-pool CALC covers Para_height pooled rows, i.e.
		// FusedPool x the convolution rows of a plain CALC.
		fp := l.FusedPool
		if fp < 1 {
			fp = 1
		}
		return uint64(l.ConvW()*l.KH*l.KW*fp) + uint64(pipe)
	case isa.LayerPool:
		return uint64(l.OutW*l.KH*l.KW) + uint64(pipe)
	case isa.LayerAdd:
		return uint64(l.OutW) + uint64(pipe)
	}
	return uint64(pipe)
}
