package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"inca/internal/accel"
	"inca/internal/cluster"
	"inca/internal/compiler"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/progcheck"
	"inca/internal/quant"
)

// budgetScale is the VIBudget handed to the placement optimizer, as a
// multiple of the model's VIEvery bound (the scale BENCH_vi.json uses).
const budgetScale = 4

// runDeployCold is the deploy path with nothing cached: for each network of
// the deploy set, under VIEvery and under VIBudget, synthesize weights,
// compile (self-check off, so the phases separate), verify statically with
// the cost model, encode, decode, and allocate an arena. Closed loop, one
// client. A repetition is one pass over the set; an op is one deployed
// program.
func runDeployCold(e *env) (*result, error) {
	cfg := accel.Big()
	cfg.Workers = 1
	res := &result{sim: simObs{freqMHz: cfg.FreqMHz}}
	d := e.sz.deploy

	digests := map[string][sha256.Size]byte{} // program -> SHA-256 of its encoding in the first pass
	var layer deployCounters

	// deploy runs the phases for one network under one policy and returns the
	// program, the proven bound the verifier re-derived, and the wall time.
	deploy := func(op int, g *model.Network, seed uint64, vi compiler.VIPolicy, tag string, first bool) (*isa.Program, uint64, time.Duration, error) {
		var wall time.Duration
		var q *quant.Network
		var p *isa.Program
		step := func(layerName, name string, f func() error) error {
			w, err := e.call(layerName, name, op, f)
			wall += w
			return err
		}
		if err := step("quant", "quant.synthesize", func() (err error) {
			q, err = quant.Synthesize(g, seed)
			return err
		}); err != nil {
			return nil, 0, 0, err
		}
		opt := cfg.CompilerOptions()
		opt.VI = vi
		opt.EmitWeights = true
		opt.Check = false
		var m0, m1 runtime.MemStats
		if e.rec != nil && !e.rec.paused {
			runtime.ReadMemStats(&m0)
		}
		if err := step("compiler", "compiler.compile."+tag, func() (err error) {
			p, err = compiler.Compile(q, opt)
			return err
		}); err != nil {
			return nil, 0, 0, err
		}
		if e.rec != nil && !e.rec.paused {
			runtime.ReadMemStats(&m1)
			layer.compileAlloc += m1.TotalAlloc - m0.TotalAlloc
			layer.compiles++
		}
		var rep *progcheck.Report
		if err := step("progcheck", "progcheck.verify", func() error {
			rep = progcheck.Verify(p, progcheck.Options{Cost: cfg})
			return nil
		}); err != nil {
			return nil, 0, 0, err
		}
		var enc bytes.Buffer
		if err := step("isa", "isa.encode", func() error { return isa.Encode(&enc, p) }); err != nil {
			return nil, 0, 0, err
		}
		var back *isa.Program
		if err := step("isa", "isa.decode", func() (err error) {
			back, err = isa.Decode(bytes.NewReader(enc.Bytes()))
			return err
		}); err != nil {
			return nil, 0, 0, err
		}
		if err := step("accel", "accel.new_arena", func() error {
			_, err := accel.NewArena(p)
			return err
		}); err != nil {
			return nil, 0, 0, err
		}

		// Checks, outside the timed calls.
		res.attempted++
		key := fmt.Sprintf("%02d %s %dx%d %s", op, g.Name, g.InH, g.InW, tag)
		sum := sha256.Sum256(enc.Bytes())
		prev, seen := digests[key]
		var again bytes.Buffer
		switch err := isa.Encode(&again, back); {
		case !rep.OK():
			res.fail(1, "%s: progcheck rejects: %v", key, rep.Err())
		case err != nil || !bytes.Equal(again.Bytes(), enc.Bytes()):
			res.fail(1, "%s: Decode(Encode(p)) does not re-encode byte-identically", key)
		case seen && prev != sum:
			res.fail(1, "%s: program differs between repetitions (sha256 %x, first pass %x)", key, sum[:8], prev[:8])
		}
		if first {
			digests[key] = sum
			res.notes = append(res.notes, fmt.Sprintf("sha256 %x  %s  %d instrs", sum[:8], key, len(p.Instrs)))
			st := compiler.Analyze(p)
			layer.add(tag, st, rep, enc.Len())
		}
		return p, rep.RederivedBound, wall, nil
	}

	nets, err := setup(e, res, func() ([]*model.Network, error) {
		r18, err := model.NewResNet(18, 3, d[2].h, d[2].w)
		if err != nil {
			return nil, err
		}
		deep, err := model.NewResNet(e.sz.deepDepth, 3, d[3].h, d[3].w)
		if err != nil {
			return nil, err
		}
		nets := []*model.Network{
			model.NewSuperPoint(d[0].h, d[0].w), model.NewSuperPoint(d[1].h, d[1].w), r18, deep,
			model.NewVGG16(3, d[4].h, d[4].w), model.NewMobileNetV1(3, d[5].h, d[5].w),
		}
		// Warm-up, discarded: the three small networks once, so the first
		// timed pass does not pay for a cold allocator.
		return nets, e.unrecorded(func() error {
			for k, g := range nets[:3] {
				if _, _, _, err := deploy(2*k, g, e.sub(uint64(k)), compiler.VIEvery{}, "every", false); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	err = e.timed(res, 1, func(i int, first bool) (int, time.Duration, error) {
		var wall time.Duration
		for k, g := range nets {
			seed := e.sub(uint64(k))
			every, bound, w, err := deploy(2*k, g, seed, compiler.VIEvery{}, "every", first)
			if err != nil {
				return 0, 0, err
			}
			wall += w
			budget := compiler.VIBudget{MaxResponseCycles: budgetScale * bound}
			pruned, got, w, err := deploy(2*k+1, g, seed, budget, "budget", first)
			if err != nil {
				return 0, 0, err
			}
			wall += w
			if got > budget.MaxResponseCycles {
				res.fail(1, "%s: bound %d over the budget %d it was compiled for", g.Name, got, budget.MaxResponseCycles)
			}
			if first {
				s := &res.sim
				for _, p := range []*isa.Program{every, pruned} {
					solo := cluster.SoloCycles(cfg, p)
					s.progs = append(s.progs, p)
					s.cycles = append(s.cycles, solo)
					s.latency = append(s.latency, solo)
					s.offered++
					s.met++
					s.done++
					s.span += solo
				}
			}
		}
		return 2 * len(nets), wall, nil
	})
	if err != nil {
		return nil, err
	}
	if err := e.probe(res, cfg, res.sim.progs); err != nil {
		return nil, err
	}
	if e.rec != nil {
		layer.report(e, res)
	}
	return res, nil
}

// deployCounters are the exact per-layer numbers of the first pass.
type deployCounters struct {
	points, virSave  map[string]float64 // by policy tag
	fusedAdds        int
	checkedResumes   int
	sampled, rejects int
	encodedBytes     int
	instrs           int
	compileAlloc     uint64 // bytes allocated by the traced pass's Compile calls
	compiles         int
}

func (c *deployCounters) add(tag string, st compiler.Stats, rep *progcheck.Report, encoded int) {
	if c.points == nil {
		c.points, c.virSave = map[string]float64{}, map[string]float64{}
	}
	c.points[tag] += float64(st.InterruptPoints)
	c.virSave[tag] += float64(st.VirSaveBytes) / 1024
	c.fusedAdds += st.FusedAdds
	c.checkedResumes += rep.CheckedResumes
	if rep.SampledResumes {
		c.sampled++
	}
	if !rep.OK() {
		c.rejects++
	}
	c.encodedBytes += encoded
	c.instrs += st.Instrs
}

func (c *deployCounters) report(e *env, res *result) {
	for _, tag := range []string{"every", "budget"} {
		res.setLayer("compiler.points."+tag, c.points[tag])
		res.setLayer("compiler.vir_save_kb."+tag, c.virSave[tag])
		res.setLayer("compiler.compile_ms."+tag, e.rec.meanMs("compiler", "compiler.compile."+tag))
	}
	// The one traced pass deployed the same set the first pass counted.
	everyNs, _ := e.rec.sum("compiler", "compiler.compile.every")
	budgetNs, _ := e.rec.sum("compiler", "compiler.compile.budget")
	verifyNs, _ := e.rec.sum("progcheck", "progcheck.verify")
	kinstrs := float64(c.instrs) / 1e3
	res.setLayer("compiler.kinstrs_per_s", kinstrs/((everyNs+budgetNs)/1e9))
	res.setLayer("compiler.alloc_mb", float64(c.compileAlloc)/(1<<20)/float64(c.compiles))
	res.setLayer("compiler.fused_adds", float64(c.fusedAdds))
	res.setLayer("quant.synth_ms", e.rec.meanMs("quant", "quant.synthesize"))
	res.setLayer("progcheck.verify_ms", e.rec.meanMs("progcheck", "progcheck.verify"))
	res.setLayer("progcheck.kinstrs_per_s", kinstrs/(verifyNs/1e9))
	res.setLayer("progcheck.checked_resumes", float64(c.checkedResumes))
	res.setLayer("progcheck.sampled_models", float64(c.sampled))
	res.setLayer("progcheck.rejects", float64(c.rejects))
	res.setLayer("isa.encode_ms", e.rec.meanMs("isa", "isa.encode"))
	res.setLayer("isa.decode_ms", e.rec.meanMs("isa", "isa.decode"))
	res.setLayer("isa.encoded_kb", float64(c.encodedBytes)/1024)
	res.setLayer("accel.new_arena_ms", e.rec.meanMs("accel", "accel.new_arena"))
}
