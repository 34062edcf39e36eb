// Package core is the INCA framework's top-level API (Fig. 1 of the paper):
// it takes the CNNs of independently developed robot components, compiles
// each to the interruptible VI-ISA for a chosen accelerator, binds them to
// IAU priority slots, and exposes a runtime through which ROS nodes issue
// inference requests without coordinating with each other.
package core

import (
	"fmt"
	"time"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/fault"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/ros"
	"inca/internal/tensor"
	"inca/internal/trace"
)

// Runtime owns one accelerator (through its IAU) and the deployments bound
// to its priority slots.
type Runtime struct {
	Cfg    accel.Config
	Policy iau.Policy
	U      *iau.IAU

	deployments [iau.NumSlots]*Deployment

	// MaxRetries bounds how many times the runtime resubmits a request the
	// watchdog killed; RetryBackoff spaces the attempts (attempt k waits
	// k+1 backoffs). Both are armed by EnableFaults.
	MaxRetries   int
	RetryBackoff time.Duration

	rosCore   *ros.Core
	callbacks map[*iau.Request]func(ros.Time)
	failbacks map[*iau.Request]func(error)
	nextComp  int
	pollStop  func()
}

// Deployment is one network compiled and bound to a priority slot.
type Deployment struct {
	Name string
	Slot int
	Prog *isa.Program
	rt   *Runtime

	// Inferences counts completed requests.
	Inferences int
}

// NewRuntime creates a runtime for the accelerator configuration under the
// given interrupt policy (PolicyVI is INCA proper; the baselines exist for
// comparison).
func NewRuntime(cfg accel.Config, policy iau.Policy) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Runtime{
		Cfg:       cfg,
		Policy:    policy,
		U:         iau.New(cfg, policy),
		callbacks: make(map[*iau.Request]func(ros.Time)),
		failbacks: make(map[*iau.Request]func(error)),
	}, nil
}

// FaultConfig arms a runtime's fault injection and recovery policy in one
// struct (EnableFaults).
type FaultConfig struct {
	// Injector drives the deterministic fault sites (backup bit-flips,
	// stalls, hangs, lost IRQs).
	Injector *fault.Injector
	// WatchdogCycles bounds per-instruction cycles; 0 derives a safe bound
	// from the programs deployed so far (so enable faults after Deploy).
	WatchdogCycles uint64
	// MaxRetries bounds how many times the runtime resubmits a request the
	// watchdog killed.
	MaxRetries int
	// RetryBackoff spaces the attempts (attempt k waits k+1 backoffs).
	RetryBackoff time.Duration
}

// EnableFaults arms the runtime's accelerator with the config's injector
// plus a watchdog and bounded retry.
func (rt *Runtime) EnableFaults(fc FaultConfig) {
	rt.U.Faults = fc.Injector
	watchdogCycles := fc.WatchdogCycles
	if watchdogCycles == 0 {
		progs := make([]*isa.Program, 0, iau.NumSlots)
		for _, d := range rt.deployments {
			if d != nil {
				progs = append(progs, d.Prog)
			}
		}
		watchdogCycles = iau.WatchdogBound(rt.Cfg, progs...)
	}
	rt.U.WatchdogCycles = watchdogCycles
	rt.MaxRetries = fc.MaxRetries
	rt.RetryBackoff = fc.RetryBackoff
	rt.U.OnFail = rt.onFail
}

// AttachTracer wires a cycle-accurate tracer through the runtime's whole
// stack (IAU, engine, and the runtime's own infer/poll lifecycle marks).
func (rt *Runtime) AttachTracer(tr *trace.Tracer) {
	rt.U.AttachTracer(tr)
	for _, d := range rt.deployments {
		if d != nil {
			tr.SetTaskLabel(d.Slot, d.Name)
		}
	}
}

// onFail retries a watchdog-killed request within the budget; once
// exhausted the caller's failure callback (if any) fires so it can shed
// the iteration instead of waiting forever.
func (rt *Runtime) onFail(c iau.Completion, failErr error) {
	if rt.U.RetryFailed(c, rt.MaxRetries, rt.Cfg.SecondsToCycles(rt.RetryBackoff.Seconds())) {
		return // completion callback stays registered for the retry
	}
	cb := rt.failbacks[c.Req]
	delete(rt.failbacks, c.Req)
	delete(rt.callbacks, c.Req)
	rt.U.Tracer.Mark(trace.KindInferFail, c.Slot, rt.U.Now, uint64(c.Req.Retries), c.Req.Label)
	if cb != nil {
		cb(failErr)
	}
}

// Deploy quantizes (synthetically) and compiles the network for the slot.
// Slot 0 is the highest priority and never preempted; higher slot numbers
// are interruptible and receive virtual instructions.
//
// Every Deploy* path compiles through rt.Cfg.CompilerOptions(), whose Check
// flag runs the internal/progcheck static verifier over the emitted stream
// (layout, restore groups, reservations, resume replays, response-bound
// re-derivation) — an unverifiable program never binds to a slot.
func (rt *Runtime) Deploy(slot int, g *model.Network, seed uint64) (*Deployment, error) {
	return rt.DeployBatched(slot, g, seed, 1)
}

// DeployBatched is Deploy with a batch dimension: the compiled plan carries
// batch input/output planes per featuremap and amortizes every weight load
// across the batch (serving-style throughput mode). InferBatch runs such a
// deployment on a full batch of inputs; batch 1 is identical to Deploy.
func (rt *Runtime) DeployBatched(slot int, g *model.Network, seed uint64, batch int) (*Deployment, error) {
	if slot < 0 || slot >= iau.NumSlots {
		return nil, fmt.Errorf("core: slot %d out of range [0,%d)", slot, iau.NumSlots)
	}
	if rt.deployments[slot] != nil {
		return nil, fmt.Errorf("core: slot %d already bound to %q", slot, rt.deployments[slot].Name)
	}
	q, err := quant.Synthesize(g, seed)
	if err != nil {
		return nil, err
	}
	opt := rt.Cfg.CompilerOptions()
	opt.VI = compiler.VIIf(rt.Policy == iau.PolicyVI && slot > 0)
	opt.Batch = batch
	// Embed the weight image so InferBatch (and any caller handing InferSync
	// a fresh accel.NewArena) can run functionally; timing-only callers just
	// pass a nil arena as before.
	opt.EmitWeights = true
	p, err := compiler.Compile(q, opt)
	if err != nil {
		return nil, fmt.Errorf("core: compiling %q: %w", g.Name, err)
	}
	d := &Deployment{Name: g.Name, Slot: slot, Prog: p, rt: rt}
	rt.deployments[slot] = d
	rt.U.Tracer.SetTaskLabel(slot, g.Name)
	return d, nil
}

// AttachROS couples the runtime to a middleware instance: the accelerator
// timeline advances with virtual time and completions are delivered as
// scheduled callbacks. pollEvery bounds the completion-delivery quantization
// (hardware drivers poll or take interrupts at a similar granularity).
func (rt *Runtime) AttachROS(c *ros.Core, pollEvery time.Duration) {
	rt.rosCore = c
	drv := c.Node("inca_driver")
	rt.pollStop = drv.Every(pollEvery, func() { rt.poll(c.Now()) })
}

// DetachROS stops the driver polling.
func (rt *Runtime) DetachROS() {
	if rt.pollStop != nil {
		rt.pollStop()
		rt.pollStop = nil
	}
}

// poll advances the accelerator to the current virtual time and fires
// completion callbacks.
func (rt *Runtime) poll(now ros.Time) {
	horizon := rt.Cfg.SecondsToCycles(now.Seconds())
	rt.U.Tracer.Mark(trace.KindPoll, -1, horizon, 0, "")
	if err := rt.U.Run(horizon); err != nil {
		panic(fmt.Sprintf("core: accelerator error: %v", err))
	}
	for rt.nextComp < len(rt.U.Completions) {
		comp := rt.U.Completions[rt.nextComp]
		rt.nextComp++
		if d := rt.deployments[comp.Slot]; d != nil {
			d.Inferences++
		}
		delete(rt.failbacks, comp.Req)
		if cb, ok := rt.callbacks[comp.Req]; ok {
			delete(rt.callbacks, comp.Req)
			done := ros.Time(rt.Cfg.CyclesToSeconds(comp.Req.DoneCycle) * float64(time.Second))
			rt.U.Tracer.Mark(trace.KindInferDone, comp.Slot, comp.Req.DoneCycle, 0, comp.Req.Label)
			cb(done)
		}
	}
}

// InferCallbacks carries the completion handlers for one InferAsync
// request. Both fields are optional.
type InferCallbacks struct {
	// OnDone fires (from the driver's poll) with the completion timestamp.
	OnDone func(ros.Time)
	// OnFail fires when the request is abandoned after the runtime's retry
	// budget (watchdog kills under fault injection), so the caller can shed
	// the iteration instead of waiting on a completion that will never come.
	OnFail func(error)
}

// InferAsync submits one inference at the current virtual time; the
// callbacks fire from the driver's poll as the request completes or is
// abandoned.
func (d *Deployment) InferAsync(cb InferCallbacks) error {
	rt := d.rt
	if rt.rosCore == nil {
		return fmt.Errorf("core: runtime not attached to a ros core")
	}
	req := &iau.Request{Label: d.Name, Prog: d.Prog}
	at := rt.Cfg.SecondsToCycles(rt.rosCore.Now().Seconds())
	if at < rt.U.Now {
		at = rt.U.Now
	}
	if err := rt.U.SubmitAt(d.Slot, req, at); err != nil {
		return err
	}
	rt.U.Tracer.Mark(trace.KindInfer, d.Slot, at, 0, d.Name)
	if cb.OnDone != nil {
		rt.callbacks[req] = cb.OnDone
	}
	if cb.OnFail != nil {
		rt.failbacks[req] = cb.OnFail
	}
	return nil
}

// InferSync runs one inference to completion outside any middleware,
// returning the request with its timing filled in. Arena may be nil for
// timing-only programs.
func (d *Deployment) InferSync(arena []byte) (*iau.Request, error) {
	req := &iau.Request{Label: d.Name, Prog: d.Prog, Arena: arena}
	if err := d.rt.U.Submit(d.Slot, req); err != nil {
		return nil, err
	}
	if err := d.rt.U.RunAll(); err != nil {
		return nil, err
	}
	if req.Failed {
		return req, fmt.Errorf("core: %q abandoned after %d retries (watchdog)", d.Name, req.Retries)
	}
	d.Inferences++
	return req, nil
}

// InferBatch runs one functional inference over a full batch of inputs on a
// DeployBatched deployment: every input is written to its element's plane of
// a fresh arena, the batched plan executes once (weights stream in once per
// tile for all elements), and the per-element outputs come back in input
// order. len(inputs) must equal the deployment's compiled batch size.
func (d *Deployment) InferBatch(inputs []*tensor.Int8) ([]*tensor.Int8, *iau.Request, error) {
	p := d.Prog
	if len(inputs) != p.BatchN() {
		return nil, nil, fmt.Errorf("core: %q compiled for batch %d, got %d inputs", d.Name, p.BatchN(), len(inputs))
	}
	arena, err := accel.NewArena(p)
	if err != nil {
		return nil, nil, err
	}
	for i, in := range inputs {
		if err := accel.WriteInputAt(arena, p, in, i); err != nil {
			return nil, nil, err
		}
	}
	req, err := d.InferSync(arena)
	if err != nil {
		return nil, req, err
	}
	outs := make([]*tensor.Int8, len(inputs))
	for i := range outs {
		if outs[i], err = accel.ReadOutputAt(arena, p, i); err != nil {
			return nil, req, err
		}
	}
	return outs, req, nil
}
