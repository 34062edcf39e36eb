// Package model describes CNNs as layer graphs the INCA compiler can lower
// to accelerator instructions.
//
// The graph is deliberately close to what instruction-driven embedded
// accelerators (Angel-Eye, DPU) actually execute: convolutions (optionally
// grouped/depthwise) with fused ReLU and fused 2x2 max-pooling, element-wise
// residual additions, and a handful of CPU-side layers (global pooling, GeM
// pooling, fully-connected heads) that the paper runs as post-processing.
package model

import (
	"fmt"
	"strings"
)

// Kind enumerates layer operators.
type Kind int

// Layer operator kinds.
const (
	KindInput      Kind = iota
	KindConv            // convolution, optionally grouped (depthwise when Groups==InC)
	KindAdd             // element-wise residual addition of two inputs
	KindMaxPool         // standalone max pooling (lowered to the accelerator)
	KindGlobalPool      // global average pooling (CPU side)
	KindGeMPool         // generalized-mean pooling (CPU side, GeM place recognition)
	KindFC              // fully connected head (CPU side)
)

func (k Kind) String() string {
	switch k {
	case KindInput:
		return "Input"
	case KindConv:
		return "Conv"
	case KindAdd:
		return "Add"
	case KindMaxPool:
		return "MaxPool"
	case KindGlobalPool:
		return "GlobalPool"
	case KindGeMPool:
		return "GeMPool"
	case KindFC:
		return "FC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Layer is one node in the network graph. Inputs refers to earlier layer
// indices; layer 0 is always the KindInput node.
type Layer struct {
	Name   string
	Kind   Kind
	Inputs []int

	// Convolution / pooling parameters.
	OutC   int
	KH, KW int
	Stride int
	Pad    int
	Groups int // 1 for dense conv; == InC for depthwise
	ReLU   bool

	// FusedPool, when non-zero, applies a FusedPool x FusedPool max-pool with
	// the same stride immediately after the convolution (Angel-Eye fuses
	// VGG-style pooling into the preceding conv's SAVE path).
	FusedPool int
}

// Shape is the inferred activation shape (C, H, W) produced by a layer.
type Shape struct {
	C, H, W int
}

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Network is a directed acyclic layer graph with a single image input.
type Network struct {
	Name   string
	InC    int
	InH    int
	InW    int
	Layers []Layer
}

// New creates a network with the input layer pre-populated.
func New(name string, c, h, w int) *Network {
	return &Network{
		Name: name, InC: c, InH: h, InW: w,
		Layers: []Layer{{Name: "input", Kind: KindInput}},
	}
}

// Add appends a layer and returns its index.
func (n *Network) Add(l Layer) int {
	n.Layers = append(n.Layers, l)
	return len(n.Layers) - 1
}

// Conv appends a convolution taking its input from layer `from`.
func (n *Network) Conv(name string, from, outC, k, stride, pad int, relu bool) int {
	return n.Add(Layer{
		Name: name, Kind: KindConv, Inputs: []int{from},
		OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad, Groups: 1, ReLU: relu,
	})
}

// DWConv appends a depthwise convolution (groups == input channels).
func (n *Network) DWConv(name string, from, k, stride, pad int, relu bool) int {
	return n.Add(Layer{
		Name: name, Kind: KindConv, Inputs: []int{from},
		OutC: -1, // resolved to InC during shape inference
		KH:   k, KW: k, Stride: stride, Pad: pad, Groups: -1, ReLU: relu,
	})
}

// MaxPool appends a standalone max-pool layer.
func (n *Network) MaxPool(name string, from, k, stride int) int {
	return n.Add(Layer{Name: name, Kind: KindMaxPool, Inputs: []int{from}, KH: k, KW: k, Stride: stride})
}

// Residual appends an element-wise addition of layers a and b.
func (n *Network) Residual(name string, a, b int, relu bool) int {
	return n.Add(Layer{Name: name, Kind: KindAdd, Inputs: []int{a, b}, ReLU: relu})
}

// Validate checks graph well-formedness: index ordering, arity, parameter
// ranges.
func (n *Network) Validate() error {
	if len(n.Layers) == 0 || n.Layers[0].Kind != KindInput {
		return fmt.Errorf("model %q: layer 0 must be the input", n.Name)
	}
	if n.InC <= 0 || n.InH <= 0 || n.InW <= 0 {
		return fmt.Errorf("model %q: invalid input shape %dx%dx%d", n.Name, n.InC, n.InH, n.InW)
	}
	for i, l := range n.Layers[1:] {
		idx := i + 1
		for _, in := range l.Inputs {
			if in < 0 || in >= idx {
				return fmt.Errorf("model %q: layer %d (%s) references out-of-order input %d", n.Name, idx, l.Name, in)
			}
		}
		switch l.Kind {
		case KindConv:
			if len(l.Inputs) != 1 {
				return fmt.Errorf("model %q: conv %s needs exactly one input", n.Name, l.Name)
			}
			if l.KH <= 0 || l.KW <= 0 || l.Stride <= 0 || l.Pad < 0 {
				return fmt.Errorf("model %q: conv %s has invalid geometry k=%dx%d s=%d p=%d", n.Name, l.Name, l.KH, l.KW, l.Stride, l.Pad)
			}
		case KindAdd:
			if len(l.Inputs) != 2 {
				return fmt.Errorf("model %q: add %s needs exactly two inputs", n.Name, l.Name)
			}
		case KindMaxPool:
			if len(l.Inputs) != 1 || l.KH <= 0 || l.KW <= 0 || l.Stride <= 0 {
				return fmt.Errorf("model %q: pool %s invalid", n.Name, l.Name)
			}
		case KindGlobalPool, KindGeMPool, KindFC:
			if len(l.Inputs) != 1 {
				return fmt.Errorf("model %q: %s %s needs exactly one input", n.Name, l.Kind, l.Name)
			}
		case KindInput:
			return fmt.Errorf("model %q: duplicate input layer at %d", n.Name, idx)
		}
	}
	return nil
}

// InferShapes computes the output shape of every layer. It returns an error
// for inconsistent graphs (e.g. residual adds over mismatched shapes).
func (n *Network) InferShapes() ([]Shape, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	shapes := make([]Shape, len(n.Layers))
	shapes[0] = Shape{C: n.InC, H: n.InH, W: n.InW}
	for i := 1; i < len(n.Layers); i++ {
		l := &n.Layers[i]
		in := shapes[l.Inputs[0]]
		switch l.Kind {
		case KindConv:
			outC := l.OutC
			groups := l.Groups
			if groups == -1 { // depthwise marker
				groups = in.C
			}
			if outC == -1 {
				outC = in.C
			}
			if groups <= 0 || in.C%groups != 0 || outC%groups != 0 {
				return nil, fmt.Errorf("model %q: conv %s groups=%d incompatible with C in=%d out=%d", n.Name, l.Name, groups, in.C, outC)
			}
			h := (in.H+2*l.Pad-l.KH)/l.Stride + 1
			w := (in.W+2*l.Pad-l.KW)/l.Stride + 1
			if h <= 0 || w <= 0 {
				return nil, fmt.Errorf("model %q: conv %s collapses spatial dims (%dx%d)", n.Name, l.Name, h, w)
			}
			if l.FusedPool > 1 {
				h /= l.FusedPool
				w /= l.FusedPool
				if h <= 0 || w <= 0 {
					return nil, fmt.Errorf("model %q: conv %s fused pool collapses dims", n.Name, l.Name)
				}
			}
			shapes[i] = Shape{C: outC, H: h, W: w}
		case KindAdd:
			b := shapes[l.Inputs[1]]
			if in != b {
				return nil, fmt.Errorf("model %q: add %s shape mismatch %v vs %v", n.Name, l.Name, in, b)
			}
			shapes[i] = in
		case KindMaxPool:
			// Note integer division truncates toward zero: a kernel larger
			// than the input would still yield h/w of 1, so check fit first.
			if in.H < l.KH || in.W < l.KW {
				return nil, fmt.Errorf("model %q: pool %s kernel %dx%d exceeds input %dx%d", n.Name, l.Name, l.KH, l.KW, in.H, in.W)
			}
			h := (in.H-l.KH)/l.Stride + 1
			w := (in.W-l.KW)/l.Stride + 1
			shapes[i] = Shape{C: in.C, H: h, W: w}
		case KindGlobalPool, KindGeMPool:
			shapes[i] = Shape{C: in.C, H: 1, W: 1}
		case KindFC:
			shapes[i] = Shape{C: l.OutC, H: 1, W: 1}
		}
	}
	return shapes, nil
}

// ConvSpec is the shape information the compiler and the analytical latency
// model need for one accelerator-resident convolution layer.
type ConvSpec struct {
	LayerIndex int
	Name       string
	InC, InH   int
	InW        int
	OutC, OutH int
	OutW       int
	KH, KW     int
	Stride     int
	Pad        int
	Groups     int
	ReLU       bool
	AddFrom    int // layer index whose output is accumulated (residual), or -1
	// FusedPool > 1 marks max pooling fused into the output path; OutH/OutW
	// remain the convolution's own (pre-pool) resolution.
	FusedPool int
}

// MACs returns the multiply-accumulate count of the convolution.
func (c ConvSpec) MACs() int64 {
	perGroup := int64(c.InC/c.Groups) * int64(c.OutC/c.Groups) * int64(c.KH*c.KW)
	return int64(c.Groups) * perGroup * int64(c.OutH) * int64(c.OutW)
}

func (c ConvSpec) String() string {
	return fmt.Sprintf("%s %dx%dx%d->%dx%dx%d k%dx%d s%d", c.Name, c.InC, c.InH, c.InW, c.OutC, c.OutH, c.OutW, c.KH, c.KW, c.Stride)
}

// ConvSpecs extracts the accelerator-resident convolution layers in execution
// order. Residual additions are fused into the consuming convolution's spec
// (the accelerator accumulates the shortcut during SAVE), matching how
// instruction-driven accelerators lower ResNet. Standalone max pools are
// lowered as 0-MAC "pooling convs" by the compiler and are not reported here.
func (n *Network) ConvSpecs() ([]ConvSpec, error) {
	shapes, err := n.InferShapes()
	if err != nil {
		return nil, err
	}
	var specs []ConvSpec
	for i, l := range n.Layers {
		if l.Kind != KindConv {
			continue
		}
		in := shapes[l.Inputs[0]]
		out := shapes[i]
		groups := l.Groups
		if groups == -1 {
			groups = in.C
		}
		// Report the convolution's own output resolution: fused pooling
		// shrinks the network activation but not the conv workload.
		convH := (in.H+2*l.Pad-l.KH)/l.Stride + 1
		convW := (in.W+2*l.Pad-l.KW)/l.Stride + 1
		specs = append(specs, ConvSpec{
			LayerIndex: i, Name: l.Name,
			InC: in.C, InH: in.H, InW: in.W,
			OutC: out.C, OutH: convH, OutW: convW,
			KH: l.KH, KW: l.KW, Stride: l.Stride, Pad: l.Pad,
			Groups: groups, ReLU: l.ReLU, AddFrom: -1,
			FusedPool: l.FusedPool,
		})
	}
	return specs, nil
}

// TotalMACs sums the MAC count over every convolution layer.
func (n *Network) TotalMACs() (int64, error) {
	specs, err := n.ConvSpecs()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range specs {
		total += s.MACs()
	}
	return total, nil
}

// Profile renders a per-conv-layer workload table: MACs, parameters,
// activation bytes, and arithmetic intensity (MACs per byte of input+weight
// traffic) — the numbers that determine whether a layer is compute- or
// memory-bound on the accelerator.
func (n *Network) Profile() (string, error) {
	specs, err := n.ConvSpecs()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %10s\n", "layer", "MACs(M)", "params(K)", "out(KB)", "MACs/byte")
	var totalMACs, totalParams int64
	for _, s := range specs {
		macs := s.MACs()
		params := int64(s.OutC) * int64(s.InC/s.Groups) * int64(s.KH*s.KW)
		outB := int64(s.OutC) * int64(s.OutH) * int64(s.OutW)
		inB := int64(s.InC) * int64(s.InH) * int64(s.InW)
		intensity := float64(macs) / float64(inB+params+outB)
		fmt.Fprintf(&b, "%-16s %10.1f %10.1f %10.1f %10.1f\n",
			s.Name, float64(macs)/1e6, float64(params)/1e3, float64(outB)/1e3, intensity)
		totalMACs += macs
		totalParams += params
	}
	fmt.Fprintf(&b, "%-16s %10.1f %10.1f\n", "TOTAL", float64(totalMACs)/1e6, float64(totalParams)/1e3)
	return b.String(), nil
}

// Summary renders a human-readable per-layer table.
func (n *Network) Summary() string {
	shapes, err := n.InferShapes()
	if err != nil {
		return fmt.Sprintf("invalid network %q: %v", n.Name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "network %s (input %dx%dx%d)\n", n.Name, n.InC, n.InH, n.InW)
	for i, l := range n.Layers {
		fmt.Fprintf(&b, "  %3d %-12s %-22s -> %s\n", i, l.Kind, l.Name, shapes[i])
	}
	return b.String()
}
