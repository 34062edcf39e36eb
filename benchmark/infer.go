package main

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"time"

	"inca/internal/accel"
	"inca/internal/core"
	"inca/internal/golden"
	"inca/internal/iau"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/tensor"
)

// subject is one program with the seeded inputs it is run on and the
// reference image every run must reproduce; the ladder takes these.
type subject struct {
	prog     *isa.Program
	slot     int
	pristine []byte           // arena with the inputs written, never executed
	scratch  []byte           // the arena each run executes in (reused: the harness allocates nothing per op)
	gold     []byte           // pristine after golden.Run
	dep      *core.Deployment // nil when the program is not bound through core: the ladder stops below it
}

// deployed is a subject bound to a slot of a core.Runtime.
type deployed struct {
	subject
	inputs []*tensor.Int8 // one per batch element
	want   []*tensor.Int8 // the reference outputs, read back from gold (batched plans)
}

func runInferDense(e *env) (*result, error) {
	cfg := accel.Big()
	cfg.Workers = 1
	s := e.sz.dense
	r18, err := model.NewResNet(18, 3, s[1].h, s[1].w)
	if err != nil {
		return nil, err
	}
	nets := []*model.Network{model.NewSuperPoint(s[0].h, s[0].w), r18, model.NewMobileNetV1(3, s[2].h, s[2].w)}
	return runInfer(e, cfg, nets, 1)
}

func runInferBatch(e *env) (*result, error) {
	cfg := accel.Serving()
	cfg.Workers = 1
	r18, err := model.NewResNet(18, 3, e.sz.batchIn.h, e.sz.batchIn.w)
	if err != nil {
		return nil, err
	}
	return runInfer(e, cfg, []*model.Network{r18}, e.sz.batch)
}

// runInfer is both closed-loop inference workloads: one client, the next
// inference issued when the previous one returns. A repetition is one
// inference of each network; an op is one image.
func runInfer(e *env, cfg accel.Config, nets []*model.Network, batch int) (*result, error) {
	res := &result{sim: simObs{freqMHz: cfg.FreqMHz}}

	// infer runs one inference of a deployment the way a user of core would:
	// InferSync on a prepared arena at B=1, InferBatch on a batched plan.
	// It returns the request, whether the output matched the reference, and
	// the wall time of the call alone.
	infer := func(k int, d *deployed) (*iau.Request, bool, time.Duration, error) {
		var req *iau.Request
		if batch == 1 {
			copy(d.scratch, d.pristine)
			wall, err := e.call("core", "core.infer_sync", k, func() (err error) {
				req, err = d.dep.InferSync(d.scratch)
				return err
			})
			return req, d.gold == nil || bytes.Equal(d.scratch, d.gold), wall, err
		}
		var outs []*tensor.Int8
		wall, err := e.call("core", "core.infer_batch", k, func() (err error) {
			outs, req, err = d.dep.InferBatch(d.inputs)
			return err
		})
		if err != nil {
			return nil, false, wall, err
		}
		ok := true
		for b, want := range d.want {
			ok = ok && slices.Equal(outs[b].Data, want.Data)
		}
		return req, ok, wall, nil
	}

	deps, err := setup(e, res, func() ([]*deployed, error) {
		rt, err := core.NewRuntime(cfg, iau.PolicyVI)
		if err != nil {
			return nil, err
		}
		var deps []*deployed
		for k, g := range nets {
			d := &deployed{}
			// Slots 1.. are the interruptible ones: the programs carry virtual
			// instructions, as anything a higher-priority task may preempt does.
			if _, err := e.call("core", "core.deploy", k, func() (err error) {
				d.dep, err = rt.DeployBatched(k+1, g, e.sub(uint64(k)), batch)
				return err
			}); err != nil {
				return nil, err
			}
			d.prog, d.slot = d.dep.Prog, d.dep.Slot
			if d.pristine, err = accel.NewArena(d.prog); err != nil {
				return nil, err
			}
			for b := 0; b < batch; b++ {
				in := tensor.NewInt8(g.InC, g.InH, g.InW)
				tensor.FillPattern(in, e.sub(uint64(100+k*batch+b)))
				if err := accel.WriteInputAt(d.pristine, d.prog, in, b); err != nil {
					return nil, err
				}
				d.inputs = append(d.inputs, in)
			}
			d.scratch = make([]byte, len(d.pristine))
			if _, _, _, err := infer(k, d); err != nil { // warm-up, discarded
				return nil, err
			}
			deps = append(deps, d)
		}
		return deps, nil
	})
	if err != nil {
		return nil, err
	}
	for k, d := range deps {
		d.gold = append([]byte(nil), d.pristine...)
		if _, err := e.call("golden", "golden.run", k, func() error { return golden.Run(d.prog, d.gold) }); err != nil {
			return nil, err
		}
		for b := 0; batch > 1 && b < batch; b++ {
			want, err := accel.ReadOutputAt(d.gold, d.prog, b)
			if err != nil {
				return nil, err
			}
			d.want = append(d.want, want)
		}
		res.sim.progs = append(res.sim.progs, d.prog)
	}

	err = e.timed(res, 1, func(i int, first bool) (int, time.Duration, error) {
		var wall time.Duration
		for k, d := range deps {
			req, ok, w, err := infer(k, d)
			if err != nil {
				return 0, 0, err
			}
			wall += w
			res.attempted += batch
			if !ok {
				res.fail(batch, "%s: output differs from golden.Run", d.prog.Name)
			}
			if first {
				s := &res.sim
				for b := 0; b < batch; b++ {
					s.cycles = append(s.cycles, (req.DoneCycle-req.StartCycle)/uint64(batch))
					s.latency = append(s.latency, req.DoneCycle-req.SubmitCycle)
				}
				s.offered += batch
				s.met += batch
				s.done += batch
				s.span += req.DoneCycle - req.SubmitCycle
			}
		}
		return len(deps) * batch, wall, nil
	})
	if err != nil {
		return nil, err
	}
	if err := e.probe(res, cfg, res.sim.progs); err != nil {
		return nil, err
	}
	if e.rec != nil {
		subjects := make([]*subject, len(deps))
		for k, d := range deps {
			subjects[k] = &d.subject
		}
		if res.split, err = e.ladder(res, cfg, subjects); err != nil {
			return nil, err
		}
		res.setLayer("core.deploy_ms", e.rec.meanMs("core", "core.deploy"))
		res.setLayer("golden.run_ms", e.rec.meanMs("golden", "golden.run"))
	}
	return res, nil
}

// opClass names the five real instruction classes of the ISA the way the
// per-layer metrics spell them.
var opClass = map[isa.Op]string{
	isa.OpLoadW: "load_w", isa.OpLoadD: "load_d", isa.OpCalcI: "calc_i", isa.OpCalcF: "calc_f", isa.OpSave: "save",
}

// layerRow is one CNN layer of the per-layer table: what the cycle model
// predicts next to what the host observed.
type layerRow struct {
	Model        string  `json:"model"`
	Layer        string  `json:"layer"`
	MACs         float64 `json:"macs"`
	Cycles       uint64  `json:"cycles"`
	CyclesCalc   uint64  `json:"cycles_calc"`
	CyclesXfer   uint64  `json:"cycles_xfer"`
	CyclesHidden uint64  `json:"cycles_hidden"`
	HostNs       float64 `json:"host_ns"`
	ModelVsHost  float64 `json:"model_vs_host"` // host seconds per modelled second
	HostSharePct float64 `json:"host_share_pct"`
}

// ladder separates the layers under core.InferSync by running the same
// program on the same input one rung at a time: the accel engine alone
// (a direct Exec loop, once more with a span per instruction), then under
// the IAU, then through core; and the engine and the IAU timing-only. It sets
// the accel, iau and core per-layer metrics, writes the per-CNN-layer table,
// and returns the rungs' host time as an attribution by layer.
func (e *env) ladder(res *result, cfg accel.Config, deps []*subject) (map[string]float64, error) {
	var direct, viaIAU, viaCore time.Duration
	var macs, timingNs, timingInstrs, iauNs, iauInstrs float64
	var snapUs []float64
	var calc, xfer, hidden uint64
	classNs := map[isa.Op]float64{}
	classN := map[isa.Op]int{}
	var rows []layerRow

	check := func(d *subject, rung string) {
		res.attempted++
		if !bytes.Equal(d.scratch, d.gold) {
			res.fail(1, "%s: %s output differs from golden.Run", d.prog.Name, rung)
		}
	}
	for k, d := range deps {
		p := d.prog
		for i := range p.Layers {
			macs += layerMACs(&p.Layers[i]) * float64(p.BatchN())
		}

		// Rung 1: the engine alone, functional.
		w, err := bestOf(2, func() (time.Duration, error) {
			copy(d.scratch, d.pristine)
			eng := accel.NewEngine(cfg)
			defer eng.Close()
			return e.call("accel", "accel.exec_stream", k, func() error {
				_, err := execStream(eng, d.scratch, p)
				return err
			})
		})
		if err != nil {
			return nil, err
		}
		check(d, "direct Exec loop")
		direct += w

		// The same loop with one span per instruction.
		lr, cycles, err := e.tracedExec(cfg, d, classNs, classN)
		if err != nil {
			return nil, err
		}
		check(d, "traced Exec loop")
		calc, xfer, hidden = calc+cycles[0], xfer+cycles[1], hidden+cycles[2]
		rows = append(rows, lr...)

		// Snapshot round trip with the engine holding half a program's state.
		copy(d.scratch, d.pristine)
		eng := accel.NewEngine(cfg)
		for _, in := range p.Instrs[:len(p.Instrs)/2] {
			if in.Op.Virtual() || in.Op == isa.OpEnd {
				continue
			}
			if _, err := eng.Exec(d.scratch, p, in, 0); err != nil {
				eng.Close()
				return nil, err
			}
		}
		for i := 0; i < 20; i++ {
			w, _ := e.call("accel", "accel.snapshot_restore", k, func() error {
				s := eng.Snapshot()
				eng.Restore(s)
				eng.ReleaseSnapshot(s)
				return nil
			})
			snapUs = append(snapUs, float64(w)/1e3)
		}
		eng.Close()

		// Rung 2: the same program under the IAU.
		w, err = bestOf(2, func() (time.Duration, error) {
			copy(d.scratch, d.pristine)
			u := iau.New(cfg, iau.PolicyVI)
			defer u.Eng.Close()
			return e.call("iau", "iau.submit_run_all", k, func() error {
				if err := u.Submit(d.slot, &iau.Request{Label: p.Name, Prog: p, Arena: d.scratch}); err != nil {
					return err
				}
				return u.RunAll()
			})
		})
		if err != nil {
			return nil, err
		}
		check(d, "IAU")
		viaIAU += w

		// Rung 3: through core, where the program is bound through it.
		if d.dep != nil {
			w, err = bestOf(2, func() (time.Duration, error) {
				copy(d.scratch, d.pristine)
				return e.call("core", "core.infer_sync", k, func() error {
					_, err := d.dep.InferSync(d.scratch)
					return err
				})
			})
			if err != nil {
				return nil, err
			}
			check(d, "core.InferSync")
			viaCore += w
		}

		engine, underIAU, n, err := e.timingRungs(cfg, p, d.slot, k)
		if err != nil {
			return nil, err
		}
		timingNs += float64(engine)
		timingInstrs += float64(n)
		iauNs += float64(underIAU)
		iauInstrs += float64(len(p.Instrs))
	}

	var total float64
	for _, ns := range classNs {
		total += ns
	}
	for op, name := range opClass {
		if classN[op] > 0 {
			res.setLayer("accel.exec_us_per_instr."+name, classNs[op]/float64(classN[op])/1e3)
		}
		res.setLayer("accel.host_share_pct."+name, pct(classNs[op], total))
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].HostNs > rows[j].HostNs })
	for i := range rows {
		rows[i].HostSharePct = pct(rows[i].HostNs, total)
	}
	simS := cfg.CyclesToSeconds(calc + xfer - hidden)
	res.setLayer("accel.gmacs_per_s", macs/direct.Seconds()/1e9)
	res.setLayer("accel.model_vs_host_ratio", direct.Seconds()/simS)
	res.setLayer("accel.top_layer_share_pct", rows[0].HostSharePct)
	res.setLayer("accel.snapshot_restore_us", median(snapUs))
	res.setLayer("accel.timing_ns_per_instr", timingNs/timingInstrs)
	res.setLayer("accel.sim_cycles.calc", float64(calc))
	res.setLayer("accel.sim_cycles.xfer", float64(xfer))
	res.setLayer("accel.sim_cycles.hidden", float64(hidden))
	res.setLayer("iau.solo_overhead_pct", pct(float64(viaIAU-direct), float64(direct)))
	res.setLayer("iau.timing_ns_per_instr", iauNs/iauInstrs)
	split := map[string]float64{"accel (functional)": float64(direct), "iau (over accel)": float64(viaIAU - direct)}
	if viaCore > 0 {
		res.setLayer("core.infer_over_iau_pct", pct(float64(viaCore-viaIAU), float64(viaIAU)))
		split["core (over iau)"] = float64(viaCore - viaIAU)
	}
	res.notes = append(res.notes, fmt.Sprintf("ladder: direct Exec %.2f ms, under IAU %.2f ms, through core %.2f ms; modelled %.3f ms", 1e3*direct.Seconds(), 1e3*viaIAU.Seconds(), 1e3*viaCore.Seconds(), 1e3*simS))
	head := rows
	if len(head) > 8 {
		head = head[:8]
	}
	for _, r := range head {
		res.notes = append(res.notes, fmt.Sprintf("layer %-14s %-12s %6.1f%% host  %7.2f MMAC  %8d cycles (calc %d xfer %d hidden %d)  host/model %.0fx",
			r.Model, r.Layer, r.HostSharePct, r.MACs/1e6, r.Cycles, r.CyclesCalc, r.CyclesXfer, r.CyclesHidden, r.ModelVsHost))
	}
	return split, e.writeJSON(e.name+".cnn_layers.json", rows)
}

// tracedExec runs a subject's stream through a fresh engine with one span
// per instruction, tagged with its op class and CNN layer, reading the
// engine's cycle counters at the same boundaries. It adds each instruction's
// host time to the per-class totals and returns one row per CNN layer and the
// stream's (calc, xfer, hidden) cycles.
func (e *env) tracedExec(cfg accel.Config, d *subject, classNs map[isa.Op]float64, classN map[isa.Op]int) ([]layerRow, [3]uint64, error) {
	p := d.prog
	copy(d.scratch, d.pristine)
	eng := accel.NewEngine(cfg)
	defer eng.Close()
	lr := make([]layerRow, len(p.Layers))
	for _, in := range p.Instrs {
		if in.Op == isa.OpEnd {
			break
		}
		if in.Op.Virtual() {
			continue
		}
		c0, x0, h0 := eng.CycleStats()
		var cyc uint64
		w, err := e.call("accel", "accel."+opClass[in.Op], int(in.Layer), func() (err error) {
			cyc, err = eng.Exec(d.scratch, p, in, 0)
			return err
		})
		if err != nil {
			return nil, [3]uint64{}, err
		}
		c1, x1, h1 := eng.CycleStats()
		r := &lr[in.Layer]
		r.Cycles += cyc
		r.CyclesCalc += c1 - c0
		r.CyclesXfer += x1 - x0
		r.CyclesHidden += h1 - h0
		r.HostNs += float64(w)
		classNs[in.Op] += float64(w)
		classN[in.Op]++
	}
	for i := range lr {
		lr[i].Model, lr[i].Layer = p.Name, p.Layers[i].Name
		lr[i].MACs = layerMACs(&p.Layers[i]) * float64(p.BatchN())
		if lr[i].Cycles > 0 {
			lr[i].ModelVsHost = lr[i].HostNs / 1e9 / cfg.CyclesToSeconds(lr[i].Cycles)
		}
	}
	c, x, h := eng.CycleStats()
	return lr, [3]uint64{c, x, h}, nil
}
