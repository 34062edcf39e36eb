package quant

import (
	"fmt"

	"inca/internal/model"
	"inca/internal/tensor"
)

// Run executes the quantized network on the software reference datapath and
// returns every layer's activation tensor (index-aligned with Graph.Layers).
// It is the golden model the functional accelerator simulator is validated
// against: identical integer arithmetic, no tiling, no buffers.
func (q *Network) Run(input *tensor.Int8) ([]*tensor.Int8, error) {
	g := q.Graph
	want := model.Shape{C: g.InC, H: g.InH, W: g.InW}
	if len(input.Shape) != 3 || input.Shape[0] != want.C || input.Shape[1] != want.H || input.Shape[2] != want.W {
		return nil, fmt.Errorf("quant: input shape %v does not match network input %v", input.Shape, want)
	}
	acts := make([]*tensor.Int8, len(g.Layers))
	acts[0] = input
	for i := 1; i < len(g.Layers); i++ {
		l := &g.Layers[i]
		in := acts[l.Inputs[0]]
		switch l.Kind {
		case model.KindConv:
			p, ok := q.Params[i]
			if !ok {
				return nil, fmt.Errorf("quant: conv layer %d (%s) has no parameters", i, l.Name)
			}
			out, err := refConv(in, l, p, q.Shapes[i])
			if err != nil {
				return nil, fmt.Errorf("quant: layer %d (%s): %w", i, l.Name, err)
			}
			acts[i] = out
		case model.KindAdd:
			b := acts[l.Inputs[1]]
			a := in
			var shift uint8
			if p := q.Params[i]; p != nil {
				shift = p.Shift
				if p.AddSwap {
					a, b = b, a
				}
			}
			out := tensor.NewInt8(in.Shape...)
			for j := range a.Data {
				out.Data[j] = SaturateAdd(a.Data[j], b.Data[j]>>shift, l.ReLU)
			}
			acts[i] = out
		case model.KindMaxPool:
			acts[i] = refMaxPool(in, l.KH, l.Stride)
		case model.KindGlobalPool, model.KindGeMPool, model.KindFC:
			// CPU-side post-processing layers are not part of the integer
			// accelerator pipeline; they consume the last accelerator
			// activation. Propagate the input unchanged so downstream layer
			// indices stay valid.
			acts[i] = in
		default:
			return nil, fmt.Errorf("quant: unsupported layer kind %v at %d", l.Kind, i)
		}
	}
	return acts, nil
}

// RunFinal executes the network and returns the activation of the last
// accelerator-resident layer (the tensor the compiled program writes to its
// output region).
func (q *Network) RunFinal(input *tensor.Int8) (*tensor.Int8, error) {
	acts, err := q.Run(input)
	if err != nil {
		return nil, err
	}
	for i := len(acts) - 1; i >= 0; i-- {
		k := q.Graph.Layers[i].Kind
		if k == model.KindConv || k == model.KindAdd || k == model.KindMaxPool {
			return acts[i], nil
		}
	}
	return acts[len(acts)-1], nil
}

func refConv(in *tensor.Int8, l *model.Layer, p *LayerParams, outShape model.Shape) (*tensor.Int8, error) {
	inC, inH, inW := in.Shape[0], in.Shape[1], in.Shape[2]
	groups := l.Groups
	if groups == -1 {
		groups = inC
	}
	outC := l.OutC
	if outC == -1 {
		outC = inC
	}
	convH := (inH+2*l.Pad-l.KH)/l.Stride + 1
	convW := (inW+2*l.Pad-l.KW)/l.Stride + 1
	icg := inC / groups
	ocg := outC / groups
	conv := tensor.NewInt8(outC, convH, convW)
	for oc := 0; oc < outC; oc++ {
		grp := oc / ocg
		for oy := 0; oy < convH; oy++ {
			for ox := 0; ox < convW; ox++ {
				var acc int32
				for ic := 0; ic < icg; ic++ {
					srcC := grp*icg + ic
					for ky := 0; ky < l.KH; ky++ {
						iy := oy*l.Stride + ky - l.Pad
						if iy < 0 || iy >= inH {
							continue
						}
						for kx := 0; kx < l.KW; kx++ {
							ix := ox*l.Stride + kx - l.Pad
							if ix < 0 || ix >= inW {
								continue
							}
							acc += int32(in.At3(srcC, iy, ix)) * int32(p.Weights.At4(oc, ic, ky, kx))
						}
					}
				}
				conv.Set3(oc, oy, ox, Requantize(acc, p.Bias[oc], p.Shift, l.ReLU))
			}
		}
	}
	if l.FusedPool > 1 {
		pooled := refMaxPool(conv, l.FusedPool, l.FusedPool)
		if pooled.Shape[1] != outShape.H || pooled.Shape[2] != outShape.W {
			return nil, fmt.Errorf("fused pool shape %v != inferred %v", pooled.Shape, outShape)
		}
		return pooled, nil
	}
	return conv, nil
}

func refMaxPool(in *tensor.Int8, k, stride int) *tensor.Int8 {
	c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	out := tensor.NewInt8(c, oh, ow)
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				m := int8(-128)
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						v := in.At3(ch, oy*stride+ky, ox*stride+kx)
						if v > m {
							m = v
						}
					}
				}
				out.Set3(ch, oy, ox, m)
			}
		}
	}
	return out
}
