package cluster

import (
	"testing"

	"inca/internal/accel"
	"inca/internal/iau"
)

// TestClusterStealCannotStrandStream is the recorded repro of a stream the
// dispatcher used to abort: both migration paths stole the parked victim
// before advancing the destination's clock, a completion inside that advance
// let the destination slot be refilled, the inject was refused, and so was
// the roll-back (the source slot had been re-queued meanwhile) — Run
// returned "iau: slot 3 busy; cannot inject" and all 3000 requests were
// lost. The destination now advances first and is re-checked before the
// steal, so a steal is always followed by an inject that cannot be refused.
func TestClusterStealCannotStrandStream(t *testing.T) {
	cfg := accel.Big()
	cfg.Workers = 1
	w, err := NewWorkload(cfg, WorkloadConfig{Tasks: 3000, Seed: 1032, MeanGapCycles: 873, DeadlineFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Engines: 4, Accel: cfg, Policy: iau.PolicyVI, Seed: 1039,
		HangRate:  HangRatePerAttempt(w.Progs, 0.02),
		StallRate: 0.01, BackupRate: 0.01,
	}, w.Tasks)
	if err != nil {
		t.Fatalf("stream aborted: %v", err)
	}
	resolved(t, res)
}
