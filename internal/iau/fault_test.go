package iau_test

import (
	"reflect"
	"strings"
	"testing"

	"inca/internal/accel"
	"inca/internal/fault"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/tensor"
	"inca/internal/trace"
)

// TestCorruptRestoreRecoversBitExact is the arena-level differential proof:
// with every interrupt backup corrupted in DDR (rate 1.0), the CRC check
// catches each one at restore, the victim re-executes from scratch, and the
// final output is still bit-identical to the fault-free reference — no
// silent divergence, under both backup mechanisms (Vir_SAVE spans and
// CPU-like snapshots).
func TestCorruptRestoreRecoversBitExact(t *testing.T) {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3

	victim := model.NewResNetTiny()
	preemptor := model.NewTinyCNN(3, 16, 16)

	for _, policy := range []iau.Policy{iau.PolicyVI, iau.PolicyCPULike} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			vp, vq := buildFunctional(t, victim, cfg, true, 11)
			pp, _ := buildFunctional(t, preemptor, cfg, true, 13)

			vin := tensor.NewInt8(victim.InC, victim.InH, victim.InW)
			tensor.FillPattern(vin, 5)
			pin := tensor.NewInt8(preemptor.InC, preemptor.InH, preemptor.InW)
			tensor.FillPattern(pin, 6)
			want, err := vq.RunFinal(vin)
			if err != nil {
				t.Fatal(err)
			}

			varena, err := accel.NewArena(vp)
			if err != nil {
				t.Fatal(err)
			}
			if err := accel.WriteInputAt(varena, vp, vin, 0); err != nil {
				t.Fatal(err)
			}

			u := iau.New(cfg, policy)
			u.Faults = fault.New(3)
			u.Faults.SetRate(fault.SiteBackup, 1.0)
			vr := &iau.Request{Label: "victim", Prog: vp, Arena: varena}
			if err := u.Submit(2, vr); err != nil {
				t.Fatal(err)
			}
			// Drive preemptors one at a time with a sliding offset so the
			// boundaries walk the victim's program and several land on
			// data-bearing backups (Vir_SAVEs under VI; every snapshot
			// under CPU-like).
			for i := 0; i < 25 && vr.DoneCycle == 0; i++ {
				parena, err := accel.NewArena(pp)
				if err != nil {
					t.Fatal(err)
				}
				if err := accel.WriteInputAt(parena, pp, pin, 0); err != nil {
					t.Fatal(err)
				}
				at := u.Now + 1500 + uint64(i*137)
				if err := u.SubmitAt(0, &iau.Request{Label: "preemptor", Prog: pp, Arena: parena}, at); err != nil {
					t.Fatal(err)
				}
				for len(u.Completions) < i+1 && u.Pending() {
					if err := u.Run(u.Now + 2000); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := u.RunAll(); err != nil {
				t.Fatal(err)
			}

			if u.Fault.CorruptedRestores == 0 {
				t.Fatal("no corrupted restore detected despite rate 1.0")
			}
			if vr.Corrupted != u.Fault.CorruptedRestores {
				t.Errorf("victim saw %d corruptions, IAU counted %d", vr.Corrupted, u.Fault.CorruptedRestores)
			}
			if vr.Restarts != vr.Corrupted {
				t.Errorf("%d corruptions but %d restarts", vr.Corrupted, vr.Restarts)
			}
			got, err := accel.ReadOutputAt(varena, vp, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("recovered execution differs from fault-free reference")
			}
		})
	}
}

// TestCorruptRestoreTimingOnly: runs without a DDR arena carry corruption
// as backup metadata; detection and restart still happen.
func TestCorruptRestoreTimingOnly(t *testing.T) {
	cfg := accel.Big()
	// VGG16 compiles with plenty of Vir_SAVEs at full parallelism (tiny
	// nets commit every group through ordinary SAVEs and never back up).
	vp := timingProg(t, model.NewVGG16(3, 60, 80), cfg, true)
	pp := timingProg(t, model.NewTinyCNN(3, 16, 16), cfg, false)

	u := iau.New(cfg, iau.PolicyVI)
	u.Faults = fault.New(9)
	u.Faults.SetRate(fault.SiteBackup, 1.0)
	vr := &iau.Request{Label: "victim", Prog: vp}
	if err := u.Submit(1, vr); err != nil {
		t.Fatal(err)
	}
	// Spread several preemptors across the victim's runtime so boundaries
	// land on Vir_SAVEs.
	for i := 0; i < 4; i++ {
		if err := u.SubmitAt(0, &iau.Request{Label: "p", Prog: pp}, uint64(20_000+i*30_000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if u.Fault.CorruptedRestores == 0 || vr.Restarts == 0 {
		t.Fatalf("timing-only corruption not detected (restores=%d restarts=%d)",
			u.Fault.CorruptedRestores, vr.Restarts)
	}
	if len(u.Completions) != 5 {
		t.Fatalf("%d completions, want 5", len(u.Completions))
	}
	if vr.DoneCycle != u.Completions[len(u.Completions)-1].Req.DoneCycle {
		t.Error("restarted victim did not finish last")
	}
}

// TestWatchdogKillsHang: an injected instruction hang is converted into a
// bounded slot reset by the watchdog, the failure is reported, and the slot
// immediately accepts (and completes) new work.
func TestWatchdogKillsHang(t *testing.T) {
	cfg := accel.Big()
	p := timingProg(t, model.NewTinyCNN(3, 16, 16), cfg, true)

	u := iau.New(cfg, iau.PolicyVI)
	u.Faults = fault.New(4)
	u.Faults.SetRate(fault.SiteHang, 1.0)
	u.WatchdogCycles = iau.WatchdogBound(cfg, p)
	tr := trace.New(0)
	u.AttachTracer(tr)

	var failed []iau.Completion
	u.OnFail = func(c iau.Completion, err error) {
		failed = append(failed, c)
		if err == nil || !strings.Contains(err.Error(), "watchdog") {
			t.Errorf("failure error %v does not name the watchdog", err)
		}
	}
	req := &iau.Request{Label: "hung", Prog: p}
	if err := u.Submit(1, req); err != nil {
		t.Fatal(err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !req.Failed || len(failed) != 1 {
		t.Fatalf("hang not killed (failed=%v, callbacks=%d)", req.Failed, len(failed))
	}
	var kills []trace.Event
	for _, e := range tr.Events() {
		if e.Kind == trace.KindKill {
			kills = append(kills, e)
		}
	}
	if u.Fault.WatchdogKills != 1 || len(kills) != 1 || kills[0].Cycle != req.DoneCycle || kills[0].Label != "hung" {
		t.Fatalf("kills=%d kill marks=%+v, want one for %q at cycle %d", u.Fault.WatchdogKills, kills, "hung", req.DoneCycle)
	}

	// Heal the fault and resubmit: the reset slot must run it to completion.
	u.Faults.SetRate(fault.SiteHang, 0)
	if err := u.Resubmit(1, req, u.Now); err != nil {
		t.Fatal(err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if req.Failed || req.Retries != 1 || len(u.Completions) != 1 {
		t.Fatalf("retry did not complete (failed=%v retries=%d completions=%d)",
			req.Failed, req.Retries, len(u.Completions))
	}
	// Resubmitting a healthy request is an error.
	if err := u.Resubmit(1, req, u.Now); err == nil {
		t.Error("resubmit of a non-failed request accepted")
	}
}

// TestHangWithoutWatchdogIsFatal: with no watchdog armed a hang cannot be
// recovered; the run must fail loudly rather than spin forever.
func TestHangWithoutWatchdogIsFatal(t *testing.T) {
	cfg := accel.Big()
	p := timingProg(t, model.NewTinyCNN(3, 16, 16), cfg, true)
	u := iau.New(cfg, iau.PolicyVI)
	u.Faults = fault.New(4)
	u.Faults.SetRate(fault.SiteHang, 1.0)
	if err := u.Submit(1, &iau.Request{Label: "hung", Prog: p}); err != nil {
		t.Fatal(err)
	}
	if err := u.RunAll(); err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("hang without watchdog returned %v, want watchdog error", err)
	}
}

// TestStallDelaysButCompletes: transient stalls cost cycles, nothing else.
func TestStallDelaysButCompletes(t *testing.T) {
	cfg := accel.Big()
	p := timingProg(t, model.NewTinyCNN(3, 16, 16), cfg, true)

	clean := iau.New(cfg, iau.PolicyVI)
	if err := clean.Submit(1, &iau.Request{Label: "r", Prog: p}); err != nil {
		t.Fatal(err)
	}
	if err := clean.RunAll(); err != nil {
		t.Fatal(err)
	}

	u := iau.New(cfg, iau.PolicyVI)
	u.Faults = fault.New(4)
	u.Faults.SetRate(fault.SiteStall, 1.0)
	if err := u.Submit(1, &iau.Request{Label: "r", Prog: p}); err != nil {
		t.Fatal(err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if u.Fault.Stalls == 0 || u.Fault.StallCycles == 0 {
		t.Fatal("no stalls injected at rate 1.0")
	}
	want := clean.Completions[0].Req.DoneCycle + u.Fault.StallCycles
	if got := u.Completions[0].Req.DoneCycle; got != want {
		t.Errorf("stalled completion at %d, want clean %d + stall %d = %d",
			got, clean.Completions[0].Req.DoneCycle, u.Fault.StallCycles, want)
	}
}

// TestLostIRQDelaysPreemption: a lost interrupt means the victim misses the
// preemption boundary and runs on; with every IRQ lost the preemptor simply
// waits for the victim — delayed, never deadlocked.
func TestLostIRQDelaysPreemption(t *testing.T) {
	cfg := accel.Big()
	vp := timingProg(t, model.NewResNetTiny(), cfg, true)
	pp := timingProg(t, model.NewTinyCNN(3, 16, 16), cfg, false)

	u := iau.New(cfg, iau.PolicyVI)
	u.Faults = fault.New(4)
	u.Faults.SetRate(fault.SiteIRQLost, 1.0)
	if err := u.Submit(1, &iau.Request{Label: "victim", Prog: vp}); err != nil {
		t.Fatal(err)
	}
	if err := u.SubmitAt(0, &iau.Request{Label: "p", Prog: pp}, 500); err != nil {
		t.Fatal(err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if u.Fault.LostIRQs == 0 {
		t.Fatal("no IRQs lost at rate 1.0")
	}
	if len(u.Preemptions) != 0 {
		t.Fatalf("%d preemptions despite every IRQ lost", len(u.Preemptions))
	}
	if len(u.Completions) != 2 {
		t.Fatalf("%d completions, want 2", len(u.Completions))
	}
}

// TestStealInjectErrorPaths covers the migration API's failure modes:
// out-of-range slots, busy destinations, and double-resume of one token.
func TestStealInjectErrorPaths(t *testing.T) {
	cfg := accel.Big()
	vp := timingProg(t, model.NewVGG16(3, 60, 80), cfg, true)
	pp := timingProg(t, model.NewTinyCNN(3, 12, 12), cfg, false)

	a := iau.New(cfg, iau.PolicyVI)
	if _, err := a.StealPreempted(-1); err == nil {
		t.Error("steal from negative slot accepted")
	}
	if _, err := a.StealPreempted(iau.NumSlots); err == nil {
		t.Error("steal from out-of-range slot accepted")
	}
	if err := a.InjectPreempted(iau.NumSlots, &iau.ResumeToken{}); err == nil {
		t.Error("inject into out-of-range slot accepted")
	}

	// Park a preempted victim on slot 1.
	if err := a.Submit(1, &iau.Request{Label: "v", Prog: vp}); err != nil {
		t.Fatal(err)
	}
	if err := a.SubmitAt(0, &iau.Request{Label: "p", Prog: pp}, 50_000); err != nil {
		t.Fatal(err)
	}
	var tok *iau.ResumeToken
	a.OnPreempt = func(pr *iau.Preemption) {
		if tok == nil {
			tok, _ = a.StealPreempted(pr.Victim)
			// Stealing again from the now-empty slot must fail.
			if _, err := a.StealPreempted(pr.Victim); err == nil {
				t.Error("second steal from the same slot accepted")
			}
		}
	}
	if err := a.RunAll(); err != nil {
		t.Fatal(err)
	}
	if tok == nil {
		t.Fatal("no token stolen")
	}

	// A busy destination slot rejects injection.
	b := iau.New(cfg, iau.PolicyVI)
	if err := b.Submit(1, &iau.Request{Label: "busy", Prog: pp}); err != nil {
		t.Fatal(err)
	}
	if err := b.InjectPreempted(1, tok); err == nil {
		t.Error("inject into a busy slot accepted")
	}
	if err := b.InjectPreempted(2, tok); err != nil {
		t.Fatalf("inject into free slot: %v", err)
	}
	// Double resume would fork the request.
	c := iau.New(cfg, iau.PolicyVI)
	if err := c.InjectPreempted(1, tok); err == nil || !strings.Contains(err.Error(), "consumed") {
		t.Errorf("double resume returned %v, want consumed error", err)
	}
	if err := b.RunAll(); err != nil {
		t.Fatal(err)
	}
	if n := len(b.Completions); n != 2 {
		t.Fatalf("core B completed %d requests, want 2", n)
	}
}

// TestSubmitAtBusySlotQueues: submissions into an occupied slot are not
// errors — they queue FIFO behind the running request.
func TestSubmitAtBusySlotQueues(t *testing.T) {
	cfg := accel.Big()
	p := timingProg(t, model.NewTinyCNN(3, 16, 16), cfg, true)
	u := iau.New(cfg, iau.PolicyVI)
	first := &iau.Request{Label: "first", Prog: p}
	second := &iau.Request{Label: "second", Prog: p}
	if err := u.Submit(1, first); err != nil {
		t.Fatal(err)
	}
	if err := u.SubmitAt(1, second, 10); err != nil {
		t.Fatalf("queueing into a busy slot: %v", err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(u.Completions) != 2 ||
		u.Completions[0].Req != first || u.Completions[1].Req != second {
		t.Fatalf("completions out of order: %+v", u.Completions)
	}
}

// TestRetryFailedLadder pins the slot-level retry step sched.Run and
// core.Runtime share: every watchdog kill inside the budget re-enqueues the
// same request k backoffs past the kill (k = the retry about to run) and
// leaves a KindRetry mark whose arg is the attempt index about to run; the
// kill that exhausts the budget re-enqueues nothing and marks nothing.
func TestRetryFailedLadder(t *testing.T) {
	cfg := accel.Big()
	const maxRetries, backoff = 2, 100_000 // backoff well over the watchdog, so a skipped wait shows
	u := iau.New(cfg, iau.PolicyVI)
	tr := trace.New(1 << 12)
	u.AttachTracer(tr)
	u.Faults = fault.New(1)
	u.Faults.SetRate(fault.SiteHang, 1.0) // every attempt dies on its first instruction
	u.WatchdogCycles = 10_000

	type kill struct {
		now     uint64
		retried bool
	}
	var kills []kill
	u.OnFail = func(c iau.Completion, _ error) {
		kills = append(kills, kill{now: u.Now, retried: u.RetryFailed(c, maxRetries, backoff)})
	}
	req := &iau.Request{Label: "hung", Prog: timingProg(t, model.NewTinyCNN(3, 12, 12), cfg, true)}
	if err := u.Submit(1, req); err != nil {
		t.Fatal(err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}

	if len(kills) != maxRetries+1 || req.Retries != maxRetries || !req.Failed {
		t.Fatalf("%d kills, %d retries, failed=%v; want %d kills, %d retries, failed", len(kills), req.Retries, req.Failed, maxRetries+1, maxRetries)
	}
	var marks []trace.Event
	for _, e := range tr.Events() {
		if e.Kind == trace.KindRetry {
			marks = append(marks, e)
		}
	}
	if len(marks) != maxRetries {
		t.Fatalf("%d retry marks, want %d", len(marks), maxRetries)
	}
	for i, k := range kills {
		if k.retried != (i < maxRetries) {
			t.Errorf("kill %d: retried=%v", i, k.retried)
		}
		if !k.retried {
			continue
		}
		if due := k.now + uint64(i+1)*backoff; kills[i+1].now < due {
			t.Errorf("retry %d died at %d, before its %d-backoff wait ended at %d", i+1, kills[i+1].now, i+1, due)
		}
		if m := marks[i]; m.Cycle != k.now || m.Slot != 1 || m.Arg != uint64(i+2) || m.Label != "hung" {
			t.Errorf("retry mark %d = %+v, want cycle %d slot 1 arg %d label hung", i, m, k.now, i+2)
		}
	}
}
