package model_test

import (
	"strings"
	"testing"

	"inca/internal/model"
)

func TestShapeInferenceTiny(t *testing.T) {
	n := model.NewTinyCNN(3, 24, 32)
	shapes, err := n.InferShapes()
	if err != nil {
		t.Fatal(err)
	}
	want := []model.Shape{
		{C: 3, H: 24, W: 32},
		{C: 16, H: 24, W: 32},
		{C: 32, H: 12, W: 16},
		{C: 32, H: 12, W: 16},
	}
	for i, w := range want {
		if shapes[i] != w {
			t.Errorf("layer %d shape %v, want %v", i, shapes[i], w)
		}
	}
}

func TestResNetDepths(t *testing.T) {
	cases := map[int]int{18: 20, 34: 36, 50: 53, 101: 104}
	for depth, convs := range cases {
		g, err := model.NewResNet(depth, 3, 224, 224)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if specs, err := g.ConvSpecs(); err != nil || len(specs) != convs {
			t.Errorf("resnet%d conv layers = %d (%v), want %d", depth, len(specs), err, convs)
		}
		if _, err := g.InferShapes(); err != nil {
			t.Errorf("resnet%d shapes: %v", depth, err)
		}
	}
	if _, err := model.NewResNet(77, 3, 224, 224); err == nil {
		t.Error("unsupported depth accepted")
	}
}

func TestResNet101FinalShape(t *testing.T) {
	g, err := model.NewResNet(101, 3, 480, 640)
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := g.InferShapes()
	if err != nil {
		t.Fatal(err)
	}
	last := shapes[len(shapes)-1]
	if last.C != 2048 || last.H != 15 || last.W != 20 {
		t.Fatalf("resnet101 final shape %v, want 2048x15x20", last)
	}
}

func TestVGG16Structure(t *testing.T) {
	g := model.NewVGG16(3, 480, 640)
	if specs, err := g.ConvSpecs(); err != nil || len(specs) != 13 {
		t.Fatalf("vgg16 conv layers = %d (%v), want 13", len(specs), err)
	}
	shapes, err := g.InferShapes()
	if err != nil {
		t.Fatal(err)
	}
	last := shapes[len(shapes)-1]
	if last.C != 512 || last.H != 15 || last.W != 20 {
		t.Fatalf("vgg16 final shape %v, want 512x15x20", last)
	}
}

func TestMobileNetDepthwise(t *testing.T) {
	g := model.NewMobileNetV1(3, 224, 224)
	specs, err := g.ConvSpecs()
	if err != nil {
		t.Fatal(err)
	}
	dw := 0
	for _, s := range specs {
		if s.Groups == s.InC && s.Groups > 1 {
			dw++
			if s.OutC != s.InC {
				t.Errorf("depthwise %s changes channels %d->%d", s.Name, s.InC, s.OutC)
			}
		}
	}
	if dw != 13 {
		t.Fatalf("mobilenet depthwise convs = %d, want 13", dw)
	}
	shapes, err := g.InferShapes()
	if err != nil {
		t.Fatal(err)
	}
	last := shapes[len(shapes)-1]
	if last.C != 1024 || last.H != 7 || last.W != 7 {
		t.Fatalf("mobilenet final %v, want 1024x7x7", last)
	}
}

func TestSuperPointHeads(t *testing.T) {
	g := model.NewSuperPoint(480, 640)
	shapes, err := g.InferShapes()
	if err != nil {
		t.Fatal(err)
	}
	var det, desc model.Shape
	for i, l := range g.Layers {
		switch l.Name {
		case "det_convPb":
			det = shapes[i]
		case "desc_convDb":
			desc = shapes[i]
		}
	}
	if det.C != 65 || det.H != 60 || det.W != 80 {
		t.Errorf("detector head %v, want 65x60x80", det)
	}
	if desc.C != 256 || desc.H != 60 || desc.W != 80 {
		t.Errorf("descriptor head %v, want 256x60x80", desc)
	}
}

func TestGeMEndsWithPooling(t *testing.T) {
	g, err := model.NewGeM(3, 480, 640)
	if err != nil {
		t.Fatal(err)
	}
	last := g.Layers[len(g.Layers)-1]
	if last.Kind != model.KindGeMPool {
		t.Fatalf("last layer kind %v, want GeMPool", last.Kind)
	}
}

func TestTotalMACs(t *testing.T) {
	// SuperPoint at 480x640 is ~26 GMAC; the paper quotes 39 GOPs
	// (2 ops per MAC at a slightly different head configuration).
	g := model.NewSuperPoint(480, 640)
	macs, err := g.TotalMACs()
	if err != nil {
		t.Fatal(err)
	}
	if macs < 15e9 || macs > 40e9 {
		t.Fatalf("superpoint MACs = %.1fG, expected 15-40G", float64(macs)/1e9)
	}
	gem, err := model.NewGeM(3, 480, 640)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := gem.TotalMACs()
	if err != nil {
		t.Fatal(err)
	}
	// ResNet-101 at 480x640 is ~48 GMAC (~96 GOPs). The paper's 192 G-ops
	// figure cites the GeM paper's own (higher) native resolution.
	if gm < 35e9 || gm > 60e9 {
		t.Fatalf("GeM MACs = %.1fG, expected 35-60G", float64(gm)/1e9)
	}
}

func TestValidationErrors(t *testing.T) {
	// Forward reference.
	n := model.New("bad", 3, 8, 8)
	n.Add(model.Layer{Name: "c", Kind: model.KindConv, Inputs: []int{5}, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 1})
	if err := n.Validate(); err == nil {
		t.Error("forward reference accepted")
	}
	// Residual shape mismatch.
	n2 := model.New("bad2", 3, 8, 8)
	a := n2.Conv("a", 0, 4, 3, 1, 1, true)
	b := n2.Conv("b", 0, 8, 3, 1, 1, true)
	n2.Residual("add", a, b, false)
	if _, err := n2.InferShapes(); err == nil {
		t.Error("shape-mismatched residual accepted")
	}
	// Collapsing conv.
	n3 := model.New("bad3", 3, 4, 4)
	n3.Conv("c", 0, 4, 7, 1, 0, false)
	if _, err := n3.InferShapes(); err == nil {
		t.Error("collapsing conv accepted")
	}
	// Invalid input shape.
	n4 := model.New("bad4", 0, 4, 4)
	if err := n4.Validate(); err == nil {
		t.Error("zero-channel input accepted")
	}
}

func TestConvSpecsReportConvResolution(t *testing.T) {
	g := model.NewVGG16(3, 64, 64)
	specs, err := g.ConvSpecs()
	if err != nil {
		t.Fatal(err)
	}
	// conv64_2 has a fused pool; its spec must report the pre-pool size.
	for _, s := range specs {
		if s.Name == "conv64_2" {
			if s.OutH != 64 || s.OutW != 64 || s.FusedPool != 2 {
				t.Fatalf("conv64_2 spec %dx%d fp=%d, want 64x64 fp=2", s.OutH, s.OutW, s.FusedPool)
			}
		}
	}
}

func TestProfile(t *testing.T) {
	g := model.NewTinyCNN(3, 24, 32)
	p, err := g.Profile()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"conv1", "conv2", "conv3", "TOTAL", "MACs/byte"} {
		if !strings.Contains(p, want) {
			t.Errorf("profile missing %q:\n%s", want, p)
		}
	}
	// A conv-free graph errors through ConvSpecs' validation path.
	bad := model.New("x", 0, 4, 4)
	if _, err := bad.Profile(); err == nil {
		t.Error("invalid network profiled")
	}
}

func TestMACsComputation(t *testing.T) {
	s := model.ConvSpec{InC: 8, OutC: 16, OutH: 10, OutW: 10, KH: 3, KW: 3, Groups: 1}
	if got := s.MACs(); got != 8*16*9*100 {
		t.Fatalf("dense MACs = %d", got)
	}
	dw := model.ConvSpec{InC: 8, OutC: 8, OutH: 10, OutW: 10, KH: 3, KW: 3, Groups: 8}
	if got := dw.MACs(); got != 8*9*100 {
		t.Fatalf("depthwise MACs = %d", got)
	}
}

// TestCollapsingPoolRejected is the minimized regression for a crash the
// verification fuzzer surfaced: a max pool whose kernel exceeds the input
// resolution used to infer a 0-height/width output shape (conv already
// errored on this), which downstream divided by the per-channel tile size —
// a divide by zero in the engine's SAVE path. Shape inference must reject
// the layer instead.
func TestCollapsingPoolRejected(t *testing.T) {
	n := model.New("poolcollapse", 1, 2, 8)
	n.MaxPool("p", 0, 3, 2) // 3x3 kernel over 2 input rows
	if _, err := n.InferShapes(); err == nil {
		t.Fatal("pool collapsing the spatial dims accepted")
	}
	// One output row is the boundary case and must still be legal.
	n2 := model.New("poolexact", 1, 3, 8)
	n2.MaxPool("p", 0, 3, 2)
	shapes, err := n2.InferShapes()
	if err != nil {
		t.Fatal(err)
	}
	if got := shapes[1]; got.H != 1 || got.W != 3 {
		t.Fatalf("exact-fit pool shape %v, want H=1 W=3", got)
	}
}
