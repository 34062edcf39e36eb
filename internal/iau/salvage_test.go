package iau

// Internal tests for the watchdog salvage path: a killed task whose slot
// holds a committed preemption checkpoint yields a restorable ResumeToken
// through Completion.Salvage, and ResumeSalvaged continues it — on this or
// any other engine — bit-exactly. The tests live inside the package so the
// corruption case can reach the token's backup span directly.

import (
	"reflect"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/fault"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/tensor"
)

func salvageConfig() accel.Config {
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3
	return cfg
}

// stageKill runs a functional victim through one clean preemption (which
// commits a salvage checkpoint), then hangs its next instruction so the
// watchdog kills it. Returns the victim request, its arena, the expected
// final output, and the salvage token OnFail published.
func stageKill(t *testing.T) (*Request, []byte, *tensor.Int8, *ResumeToken, accel.Config) {
	t.Helper()
	cfg := salvageConfig()

	victim := model.NewResNetTiny()
	vq, err := quant.Synthesize(victim, 11)
	if err != nil {
		t.Fatal(err)
	}
	vopt := cfg.CompilerOptions()
	vopt.VI = compiler.VIEvery{}
	vopt.EmitWeights = true
	vp, err := compiler.Compile(vq, vopt)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := quant.Synthesize(model.NewTinyCNN(3, 16, 16), 13)
	if err != nil {
		t.Fatal(err)
	}
	popt := cfg.CompilerOptions()
	pp, err := compiler.Compile(pq, popt)
	if err != nil {
		t.Fatal(err)
	}

	vin := tensor.NewInt8(victim.InC, victim.InH, victim.InW)
	tensor.FillPattern(vin, 5)
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

	u := New(cfg, PolicyVI)
	defer u.Eng.Close()
	u.WatchdogCycles = WatchdogBound(cfg, vp, pp)
	u.Faults = fault.New(21) // armed with zero rates until the kill is staged

	var salvage *ResumeToken
	var fails int
	u.OnFail = func(c Completion, err error) {
		fails++
		salvage = c.Salvage
	}
	// Arm the hang the instant the preemptor completes: the callback fires
	// before the parked victim resumes, so the kill lands on the victim's
	// first post-resume instruction — while the checkpointed backup span is
	// still byte-identical to what its CRC covers.
	u.OnComplete = func(c Completion) {
		u.Faults.SetRate(fault.SiteHang, 1.0)
	}

	vr := &Request{Label: "victim", Prog: vp, Arena: varena}
	if err := u.Submit(2, vr); err != nil {
		t.Fatal(err)
	}
	if err := u.SubmitAt(0, &Request{Label: "preemptor", Prog: pp}, 2000); err != nil {
		t.Fatal(err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(u.Preemptions) == 0 {
		t.Fatal("staging failed: victim was not preempted")
	}
	if fails != 1 || !vr.Failed {
		t.Fatalf("victim not killed (fails=%d failed=%v)", fails, vr.Failed)
	}
	if salvage == nil {
		t.Fatal("watchdog kill after a committed checkpoint published no salvage token")
	}
	if salvage.Req != vr {
		t.Fatal("salvage token carries the wrong request")
	}
	if salvage.pc == 0 {
		t.Fatal("salvage token resumes at pc 0 — checkpoint did not capture the preemption boundary")
	}
	return vr, varena, want, salvage, cfg
}

// TestWatchdogSalvageResumesBitExact: the killed victim's salvage token
// resumes on a second engine from the last Vir_SAVE backup, skipping the
// completed prefix, and the final output is bit-identical to the reference.
func TestWatchdogSalvageResumesBitExact(t *testing.T) {
	vr, varena, want, salvage, cfg := stageKill(t)

	b := New(cfg, PolicyVI)
	defer b.Eng.Close()
	b.WatchdogCycles = WatchdogBound(cfg, vr.Prog) // a cluster engine always arms one
	if err := b.ResumeSalvaged(2, salvage); err != nil {
		t.Fatal(err)
	}
	if vr.Failed {
		t.Error("resumed request still marked failed")
	}
	if vr.Retries != 1 {
		t.Errorf("retries = %d, want 1", vr.Retries)
	}
	if err := b.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(b.Completions) != 1 || b.Completions[0].Req != vr {
		t.Fatalf("victim did not complete on the second engine: %+v", b.Completions)
	}
	if vr.Restarts != 0 {
		t.Errorf("intact checkpoint restarted %d times, want a true resume", vr.Restarts)
	}
	got, err := accel.ReadOutputAt(varena, vr.Prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("salvaged execution differs from fault-free reference")
	}

	// The same token cannot resume twice (it would fork the request).
	vr.Failed = true
	if err := New(cfg, PolicyVI).ResumeSalvaged(2, salvage); err == nil {
		t.Error("consumed salvage token accepted a second resume")
	}
}

// TestWatchdogSalvageCorruptCheckpointRestarts: a salvage token whose DDR
// backup span was corrupted after the checksum was recorded is detected at
// the destination's restore and degrades to the restart-from-scratch path —
// still completing bit-exactly, never trusting bad state.
func TestWatchdogSalvageCorruptCheckpointRestarts(t *testing.T) {
	vr, varena, want, salvage, cfg := stageKill(t)
	if !salvage.crcValid {
		t.Fatal("checkpoint carries no checksum; corruption would be undetectable")
	}
	varena[salvage.bkLo] ^= 0x40 // rot the backup span behind the CRC's back

	b := New(cfg, PolicyVI)
	defer b.Eng.Close()
	b.WatchdogCycles = WatchdogBound(cfg, vr.Prog) // a cluster engine always arms one
	if err := b.ResumeSalvaged(2, salvage); err != nil {
		t.Fatal(err)
	}
	if err := b.RunAll(); err != nil {
		t.Fatal(err)
	}
	if b.Fault.CorruptedRestores != 1 {
		t.Fatalf("corrupted restores = %d, want 1", b.Fault.CorruptedRestores)
	}
	if vr.Corrupted != 1 || vr.Restarts != 1 {
		t.Errorf("corrupted=%d restarts=%d, want 1/1", vr.Corrupted, vr.Restarts)
	}
	if len(b.Completions) != 1 {
		t.Fatalf("victim did not complete after detected restart: %+v", b.Completions)
	}
	got, err := accel.ReadOutputAt(varena, vr.Prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restarted execution differs from fault-free reference")
	}
}

// TestWatchdogKillWithoutCheckpointHasNoSalvage: a task killed before any
// preemption boundary has nothing to salvage; OnFail reports a nil token
// and the only recovery is a full resubmission.
func TestWatchdogKillWithoutCheckpointHasNoSalvage(t *testing.T) {
	cfg := salvageConfig()
	q, err := quant.Synthesize(model.NewTinyCNN(3, 16, 16), 7)
	if err != nil {
		t.Fatal(err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	p, err := compiler.Compile(q, opt)
	if err != nil {
		t.Fatal(err)
	}

	u := New(cfg, PolicyVI)
	defer u.Eng.Close()
	u.WatchdogCycles = WatchdogBound(cfg, p)
	u.Faults = fault.New(3)
	u.Faults.SetRate(fault.SiteHang, 1.0)

	var salvage *ResumeToken
	sawFail := false
	u.OnFail = func(c Completion, err error) {
		sawFail = true
		salvage = c.Salvage
	}
	req := &Request{Label: "fresh", Prog: p}
	if err := u.Submit(1, req); err != nil {
		t.Fatal(err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !sawFail {
		t.Fatal("hang at rate 1.0 was not killed")
	}
	if salvage != nil {
		t.Fatal("never-preempted task produced a salvage token")
	}

	// ResumeSalvaged argument validation.
	if err := u.ResumeSalvaged(1, nil); err == nil {
		t.Error("nil salvage token accepted")
	}
	healthy := &ResumeToken{Req: &Request{Label: "ok"}, Policy: PolicyVI}
	if err := u.ResumeSalvaged(1, healthy); err == nil {
		t.Error("salvage resume of a non-failed request accepted")
	}
}
