package sched

// Test hooks. They compile only into the sched test binary.

// Estimate returns the slot's current per-request cycle estimate and
// whether it is warm.
func (p *PolicyPredictive) Estimate(slot int) (uint64, bool) {
	return p.slots[slot].est, p.slots[slot].estValid
}
