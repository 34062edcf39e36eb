package quant_test

import (
	"math"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/tensor"
)

func floatSample(g *model.Network, seed uint64) *tensor.Float32 {
	in := tensor.NewFloat32(g.InC, g.InH, g.InW)
	tensor.FillPatternFloat32(in, seed)
	return in
}

// TestCalibratedQuantizationFidelity: the full Fig. 1 flow — float model,
// calibration, int8 conversion — must track the float reference closely
// (cosine similarity of the final activation, computed on the int8 datapath
// and dequantized with the effective scales).
func TestCalibratedQuantizationFidelity(t *testing.T) {
	for _, g := range []*model.Network{
		model.NewTinyCNN(3, 24, 32),
		model.NewResNetTiny(),
		model.NewPoolNet(),
	} {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			fn, err := quant.SynthesizeFloat(g, 7)
			if err != nil {
				t.Fatal(err)
			}
			var samples []*tensor.Float32
			for s := uint64(0); s < 4; s++ {
				samples = append(samples, floatSample(g, 100+s))
			}
			cal, err := fn.Calibrate(samples)
			if err != nil {
				t.Fatal(err)
			}
			q, err := fn.Quantize(cal)
			if err != nil {
				t.Fatal(err)
			}

			probe := floatSample(g, 999) // not in the calibration set
			wantActs, err := fn.RunFloat(probe)
			if err != nil {
				t.Fatal(err)
			}
			gotActs, err := q.Run(quant.QuantizeInput(probe, cal))
			if err != nil {
				t.Fatal(err)
			}

			// Compare the last accelerator-resident activation.
			last := -1
			for i, l := range g.Layers {
				if l.Kind == model.KindConv || l.Kind == model.KindAdd || l.Kind == model.KindMaxPool {
					last = i
				}
			}
			want := wantActs[last]
			// Dequantize with the layer's effective scale.
			scale := cal.ActScale[last]
			if q.EffScale != nil && q.EffScale[last] > 0 {
				scale = q.EffScale[last]
			}
			got := quant.DequantizeOutput(gotActs[last], scale)
			cos, err := tensor.CosineSimilarity(got, want)
			if err != nil {
				t.Fatal(err)
			}
			if cos < 0.93 {
				t.Fatalf("int8/float cosine similarity %.3f < 0.93", cos)
			}
		})
	}
}

// TestCalibrationScalesFromSamples: scales must track the observed dynamic
// range (a network with a hot input gets a bigger input scale).
func TestCalibrationScalesFromSamples(t *testing.T) {
	g := model.NewTinyCNN(3, 12, 16)
	fn, err := quant.SynthesizeFloat(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	small := floatSample(g, 1)
	calSmall, err := fn.Calibrate([]*tensor.Float32{small})
	if err != nil {
		t.Fatal(err)
	}
	hot := small.Clone()
	for i := range hot.Data {
		hot.Data[i] *= 10
	}
	calHot, err := fn.Calibrate([]*tensor.Float32{hot})
	if err != nil {
		t.Fatal(err)
	}
	if calHot.ActScale[0] <= calSmall.ActScale[0] {
		t.Fatalf("hot input scale %v not larger than %v", calHot.ActScale[0], calSmall.ActScale[0])
	}
	// Multi-sample calibration takes the max.
	calBoth, err := fn.Calibrate([]*tensor.Float32{small, hot})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(calBoth.ActScale[0]-calHot.ActScale[0])) > 1e-9 {
		t.Fatalf("multi-sample scale %v != max single %v", calBoth.ActScale[0], calHot.ActScale[0])
	}
	if _, err := fn.Calibrate(nil); err == nil {
		t.Fatal("empty calibration accepted")
	}
}

// TestCalibratedNetworkCompiles: the quantized network must flow through the
// compiler and the functional accelerator, matching the reference executor:
// compiled to VI-ISA with its weight image embedded, run under the IAU while
// a high-priority request preempts it, bit-exact with RunFinal.
func TestCalibratedNetworkCompiles(t *testing.T) {
	g := model.NewResNetTiny()
	fn, err := quant.SynthesizeFloat(g, 11)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := fn.Calibrate([]*tensor.Float32{floatSample(g, 5)})
	if err != nil {
		t.Fatal(err)
	}
	q, err := fn.Quantize(cal)
	if err != nil {
		t.Fatal(err)
	}
	in := quant.QuantizeInput(floatSample(g, 6), cal)
	want, err := q.RunFinal(in)
	if err != nil {
		t.Fatalf("reference run of calibrated network: %v", err)
	}

	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 8, 8, 4
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	opt.EmitWeights = true
	prog, err := compiler.Compile(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	uq, err := quant.Synthesize(model.NewTinyCNN(3, 8, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	opt.VI = compiler.VINone{}
	urgent, err := compiler.Compile(uq, opt)
	if err != nil {
		t.Fatal(err)
	}
	arena, err := accel.NewArena(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := accel.WriteInput(arena, prog, in); err != nil {
		t.Fatal(err)
	}
	urgentArena, err := accel.NewArena(urgent)
	if err != nil {
		t.Fatal(err)
	}
	u := iau.New(cfg, iau.PolicyVI)
	if err := u.Submit(1, &iau.Request{Label: "calibrated", Prog: prog, Arena: arena}); err != nil {
		t.Fatal(err)
	}
	at := accel.SoloReplay(cfg, prog, nil) / 2
	if err := u.SubmitAt(0, &iau.Request{Label: "urgent", Prog: urgent, Arena: urgentArena}, at); err != nil {
		t.Fatal(err)
	}
	if err := u.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(u.Preemptions) == 0 {
		t.Fatalf("request at cycle %d did not preempt the calibrated network", at)
	}
	got, err := accel.ReadOutput(arena, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("preempted accelerator output differs from the int8 reference")
	}
}
