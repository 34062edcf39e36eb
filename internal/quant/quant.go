// Package quant produces the integer network the accelerator executes:
// int8 weights, int32 biases, and a per-layer requantization shift, mirroring
// the fixed-point deployment flow of Angel-Eye-class accelerators (quantize
// weights, analyze topology, emit instructions).
//
// It also contains the bit-exact software reference executor used as the
// golden model when validating the functional accelerator simulator: both
// sides perform identical arithmetic (int32 accumulate, bias add, arithmetic
// right shift, optional ReLU, saturate to int8).
package quant

import (
	"math"

	"inca/internal/model"
	"inca/internal/tensor"
)

// LayerParams holds the integer parameters of one layer.
//
// For convolutions, Weights/Bias/Shift describe the requantizing datapath.
// For residual additions, Shift is the alignment shift applied to the
// smaller-scale input before adding (branches generally arrive at different
// quantization scales), and AddSwap marks that the layer's *first* input is
// the one to shift.
type LayerParams struct {
	// Weights is OIHW int8; for grouped convolutions O and I are per-group
	// extents laid out group-major. Nil for non-conv layers.
	Weights *tensor.Int8
	// Bias has one int32 entry per output channel. Nil for non-conv layers.
	Bias []int32
	// Shift is the arithmetic right shift applied to (acc + bias) for conv
	// layers, or to the smaller-scale input for Add layers.
	Shift uint8
	// AddSwap (Add layers only): the alignment shift applies to Inputs[0]
	// rather than Inputs[1].
	AddSwap bool
}

// Network couples a model graph with quantized parameters for every conv
// layer (and alignment parameters for residual additions).
type Network struct {
	Graph  *model.Network
	Shapes []model.Shape
	// Params is indexed by layer index in Graph; conv and Add layers have
	// entries (Add entries only when branch alignment is needed).
	Params map[int]*LayerParams
}

// Synthesize builds a quantized network with deterministic synthetic
// parameters derived from seed. The interrupt experiments depend only on
// layer shapes; synthetic weights keep the functional datapath fully
// exercised (non-trivial accumulations, saturation, ReLU) while remaining
// reproducible.
func Synthesize(g *model.Network, seed uint64) (*Network, error) {
	shapes, err := g.InferShapes()
	if err != nil {
		return nil, err
	}
	q := &Network{Graph: g, Shapes: shapes, Params: make(map[int]*LayerParams)}
	for i, l := range g.Layers {
		if l.Kind != model.KindConv {
			continue
		}
		in := shapes[l.Inputs[0]]
		groups := l.Groups
		if groups == -1 {
			groups = in.C
		}
		outC := l.OutC
		if outC == -1 {
			outC = in.C
		}
		icg := in.C / groups
		w := tensor.NewInt8(outC, icg, l.KH, l.KW)
		tensor.FillPattern(w, seed^uint64(i)*0x9e37)
		bias := make([]int32, outC)
		s := seed ^ (uint64(i) << 32)
		for c := range bias {
			s = s*6364136223846793005 + 1442695040888963407
			bias[c] = int32(int8(s >> 40)) // small biases
		}
		q.Params[i] = &LayerParams{Weights: w, Bias: bias, Shift: syntheticShift(icg, l.KH, l.KW)}
	}
	return q, nil
}

// syntheticShift picks a requantization shift that keeps random int8
// activations in range: accumulator std ≈ σ_in·σ_w·√N with σ ≈ 74 for
// uniform int8, scaled back to a ~±64 output band.
func syntheticShift(icg, kh, kw int) uint8 {
	n := float64(icg * kh * kw)
	std := 74.0 * 74.0 * math.Sqrt(n)
	sh := math.Round(math.Log2(std / 48.0))
	if sh < 0 {
		sh = 0
	}
	if sh > 24 {
		sh = 24
	}
	return uint8(sh)
}

// Requantize folds accumulator, bias, shift, ReLU and saturation exactly as
// the accelerator datapath does at CALC_F time.
func Requantize(acc int32, bias int32, shift uint8, relu bool) int8 {
	v := (acc + bias) >> shift
	if relu && v < 0 {
		v = 0
	}
	if v > 127 {
		v = 127
	}
	if v < -128 {
		v = -128
	}
	return int8(v)
}

// RequantizeRow requantizes a contiguous row of int32 accumulators into
// int8 outputs, element-for-element identical to Requantize. The ReLU
// branch is hoisted out of the loop and the clamps are branch-light so the
// engine's flattened CALC_F epilogue stays allocation- and call-free.
func RequantizeRow(dst []int8, src []int32, bias int32, shift uint8, relu bool) {
	if len(src) == 0 {
		return
	}
	dst = dst[:len(src)]
	if relu {
		for i, a := range src {
			v := (a + bias) >> shift
			if v < 0 {
				v = 0
			} else if v > 127 {
				v = 127
			}
			dst[i] = int8(v)
		}
		return
	}
	for i, a := range src {
		v := (a + bias) >> shift
		if v > 127 {
			v = 127
		} else if v < -128 {
			v = -128
		}
		dst[i] = int8(v)
	}
}

// SaturateAdd performs the element-wise residual addition datapath.
func SaturateAdd(a, b int8, relu bool) int8 {
	v := int16(a) + int16(b)
	if relu && v < 0 {
		v = 0
	}
	if v > 127 {
		v = 127
	}
	if v < -128 {
		v = -128
	}
	return int8(v)
}
