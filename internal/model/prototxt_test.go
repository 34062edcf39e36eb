package model_test

import (
	"strings"
	"testing"

	"inca/internal/model"
)

const sampleProto = `
name: "sample"
# three-layer network with a residual branch
input_shape { dim: 1 dim: 3 dim: 24 dim: 32 }
layer {
  name: "conv1"
  type: "Convolution"
  bottom: "data"
  top: "conv1"
  convolution_param { num_output: 8 kernel_size: 3 stride: 1 pad: 1 }
}
layer { name: "relu1" type: "ReLU" bottom: "conv1" top: "conv1" }
layer {
  name: "conv2"
  type: "Convolution"
  bottom: "conv1"
  top: "conv2"
  convolution_param { num_output: 8 kernel_size: 3 stride: 1 pad: 1 }
}
layer { name: "sum" type: "Eltwise" bottom: "conv2" bottom: "conv1" top: "sum" }
layer { name: "relu2" type: "ReLU" bottom: "sum" top: "sum" }
layer {
  name: "pool1" type: "Pooling" bottom: "sum" top: "pool1"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 }
}
`

func TestParsePrototxt(t *testing.T) {
	n, err := model.ParsePrototxt(sampleProto)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "sample" || n.InC != 3 || n.InH != 24 || n.InW != 32 {
		t.Fatalf("header parsed wrong: %s %dx%dx%d", n.Name, n.InC, n.InH, n.InW)
	}
	shapes, err := n.InferShapes()
	if err != nil {
		t.Fatal(err)
	}
	last := shapes[len(shapes)-1]
	if last.C != 8 || last.H != 12 || last.W != 16 {
		t.Fatalf("final shape %v, want 8x12x16", last)
	}
	// ReLU fused into conv1 and into the Eltwise.
	var conv1, sum *model.Layer
	for i := range n.Layers {
		switch n.Layers[i].Name {
		case "conv1":
			conv1 = &n.Layers[i]
		case "sum":
			sum = &n.Layers[i]
		}
	}
	if conv1 == nil || !conv1.ReLU {
		t.Error("ReLU not fused into conv1")
	}
	if sum == nil || !sum.ReLU || sum.Kind != model.KindAdd {
		t.Error("ReLU not fused into the Eltwise sum")
	}
}

func TestParsePrototxtErrors(t *testing.T) {
	cases := map[string]string{
		"missing input_shape": `name: "x"
layer { name: "c" type: "Convolution" bottom: "data" top: "c" convolution_param { num_output: 4 kernel_size: 3 } }`,
		"unknown bottom": `input_shape { dim: 3 dim: 8 dim: 8 }
layer { name: "c" type: "Convolution" bottom: "nope" top: "c" convolution_param { num_output: 4 kernel_size: 3 } }`,
		"unsupported type": `input_shape { dim: 3 dim: 8 dim: 8 }
layer { name: "l" type: "LSTM" bottom: "data" top: "l" }`,
		"avg pooling": `input_shape { dim: 3 dim: 8 dim: 8 }
layer { name: "p" type: "Pooling" bottom: "data" top: "p" pooling_param { pool: AVE kernel_size: 2 } }`,
		"missing kernel": `input_shape { dim: 3 dim: 8 dim: 8 }
layer { name: "c" type: "Convolution" bottom: "data" top: "c" convolution_param { num_output: 4 } }`,
		"relu after pool": `input_shape { dim: 3 dim: 8 dim: 8 }
layer { name: "p" type: "Pooling" bottom: "data" top: "p" pooling_param { pool: MAX kernel_size: 2 } }
layer { name: "r" type: "ReLU" bottom: "p" top: "p" }`,
		"unterminated string": `name: "x`,
		"stray brace":         `}`,
		"unclosed block":      `input_shape { dim: 3`,
	}
	for name, src := range cases {
		if _, err := model.ParsePrototxt(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParsePrototxtComments(t *testing.T) {
	src := strings.ReplaceAll(sampleProto, `type: "Convolution"`, "# inline\n  type: \"Convolution\"")
	if _, err := model.ParsePrototxt(src); err != nil {
		t.Fatalf("comments broke parsing: %v", err)
	}
}

func TestParsePrototxtDepthwise(t *testing.T) {
	src := `
input_shape { dim: 8 dim: 16 dim: 16 }
layer {
  name: "dw" type: "Convolution" bottom: "data" top: "dw"
  convolution_param { num_output: 8 kernel_size: 3 stride: 1 pad: 1 group: 8 }
}
`
	n, err := model.ParsePrototxt(src)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := n.ConvSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Groups != 8 || specs[0].InC != 8 {
		t.Fatalf("depthwise parse: groups=%d inC=%d", specs[0].Groups, specs[0].InC)
	}
}
