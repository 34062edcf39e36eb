package accel

import "inca/internal/isa"

// SoloReplay replays p's uninterrupted IAU timing on a fresh engine of cfg,
// without an arena, and returns the completion cycle: real instructions cost
// their engine cycles (prefetch-hiding pipeline included), virtual ones the
// fetch-and-discard cost, END stops the walk. A non-nil starts, of
// len(p.Instrs), also receives the cycle at which each instruction begins.
func SoloReplay(cfg Config, p *isa.Program, starts []uint64) uint64 {
	eng := NewEngine(cfg)
	defer eng.Close()
	var now uint64
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if starts != nil {
			starts[i] = now
		}
		if in.Op == isa.OpEnd {
			break
		}
		if in.Op.Virtual() {
			now += uint64(cfg.FetchCycles)
			continue
		}
		c, _ := eng.ExecRef(nil, p, in, 0)
		now += c
	}
	return now
}
