package quant_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/tensor"
)

func TestSynthesizeCoversConvLayers(t *testing.T) {
	g := model.NewResNetTiny()
	q, err := quant.Synthesize(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range g.Layers {
		_, has := q.Params[i]
		if (l.Kind == model.KindConv) != has {
			t.Errorf("layer %d (%s, %v): params present=%v", i, l.Name, l.Kind, has)
		}
	}
	// Deterministic.
	q2, err := quant.Synthesize(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range q.Params {
		if !reflect.DeepEqual(q.Params[i].Weights, q2.Params[i].Weights) {
			t.Fatalf("layer %d weights differ across identical seeds", i)
		}
	}
}

func TestRequantize(t *testing.T) {
	cases := []struct {
		acc   int32
		bias  int32
		shift uint8
		relu  bool
		want  int8
	}{
		{1000, 24, 3, false, 127},    // saturate high
		{-100000, 0, 4, false, -128}, // saturate low
		{-50, 0, 0, true, 0},         // relu clamps
		{640, 0, 4, false, 40},
		{-64, 0, 2, false, -16},
		{0, -8, 3, false, -1},
	}
	for i, c := range cases {
		if got := quant.Requantize(c.acc, c.bias, c.shift, c.relu); got != c.want {
			t.Errorf("case %d: Requantize = %d, want %d", i, got, c.want)
		}
	}
}

func TestSaturateAdd(t *testing.T) {
	if got := quant.SaturateAdd(100, 100, false); got != 127 {
		t.Errorf("100+100 = %d", got)
	}
	if got := quant.SaturateAdd(-100, -100, false); got != -128 {
		t.Errorf("-100-100 = %d", got)
	}
	if got := quant.SaturateAdd(-5, 2, true); got != 0 {
		t.Errorf("relu(-3) = %d", got)
	}
	if got := quant.SaturateAdd(-5, 2, false); got != -3 {
		t.Errorf("-5+2 = %d", got)
	}
}

// RequantizeRow is the batched form the engine's row-sliced datapath uses;
// it must agree with scalar Requantize element for element, including at
// the clamp boundaries.
func TestRequantizeRowMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := make([]int32, 257)
	dst := make([]int8, len(src))
	for trial := 0; trial < 50; trial++ {
		for i := range src {
			switch i % 8 {
			case 0:
				src[i] = int32(rng.Uint32()) // full range, saturates both ways
			default:
				src[i] = int32(rng.Intn(1<<16) - 1<<15)
			}
		}
		// Edge values at fixed slots every trial.
		src[0], src[1], src[2], src[3] = math.MaxInt32, math.MinInt32, 0, -1
		bias := int32(rng.Intn(512) - 256)
		shift := uint8(rng.Intn(16))
		relu := trial%2 == 0
		quant.RequantizeRow(dst, src, bias, shift, relu)
		for i, acc := range src {
			if want := quant.Requantize(acc, bias, shift, relu); dst[i] != want {
				t.Fatalf("trial %d elem %d: RequantizeRow(%d,bias=%d,shift=%d,relu=%v) = %d, scalar %d",
					trial, i, acc, bias, shift, relu, dst[i], want)
			}
		}
	}
}

// Property: requantization result is always a sane int8, and ReLU output is
// never negative.
func TestRequantizeProperties(t *testing.T) {
	f := func(acc, bias int32, shift uint8, relu bool) bool {
		v := quant.Requantize(acc, bias, shift%32, relu)
		if relu && v < 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReferenceRunShapes(t *testing.T) {
	g := model.NewPoolNet()
	q, err := quant.Synthesize(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.NewInt8(g.InC, g.InH, g.InW)
	tensor.FillPattern(in, 8)
	acts, err := q.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	shapes, _ := g.InferShapes()
	for i, a := range acts {
		k := g.Layers[i].Kind
		if k == model.KindGlobalPool || k == model.KindGeMPool || k == model.KindFC {
			continue
		}
		if a.Shape[0] != shapes[i].C || a.Shape[1] != shapes[i].H || a.Shape[2] != shapes[i].W {
			t.Errorf("layer %d activation %v, inferred %v", i, a.Shape, shapes[i])
		}
	}
	if _, err := q.Run(tensor.NewInt8(1, 2, 3)); err == nil {
		t.Fatal("wrong input shape accepted")
	}
}

// TestReferenceDepthwiseSemantics pins depthwise behaviour: each output
// channel depends only on its own input channel.
func TestReferenceDepthwiseSemantics(t *testing.T) {
	g := model.New("dw", 2, 6, 6)
	g.DWConv("dw", 0, 3, 1, 1, false)
	q, err := quant.Synthesize(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.NewInt8(2, 6, 6)
	tensor.FillPattern(in, 2)
	base, err := q.RunFinal(in)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb channel 1; channel 0's output must not change.
	in2 := tensor.NewInt8(2, 6, 6)
	copy(in2.Data, in.Data)
	for y := 0; y < 6; y++ {
		for x := 0; x < 6; x++ {
			in2.Set3(1, y, x, in2.At3(1, y, x)+1)
		}
	}
	out2, err := q.RunFinal(in2)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 6; y++ {
		for x := 0; x < 6; x++ {
			if base.At3(0, y, x) != out2.At3(0, y, x) {
				t.Fatalf("depthwise cross-channel leak at (%d,%d)", y, x)
			}
		}
	}
}
