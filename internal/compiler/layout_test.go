package compiler_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
)

// TestWeightBlobOffsets: blob addresses must tile the weight region exactly
// — contiguous, non-overlapping, in out-group order.
func TestWeightBlobOffsets(t *testing.T) {
	opt := bigAccel()
	opt.ParaIn, opt.ParaOut, opt.ParaHeight = 4, 4, 3
	opt.EmitWeights = true
	g := model.New("wb", 3, 12, 16)
	g.Conv("c", 0, 10, 3, 1, 1, true) // 10 channels: groups of 4,4,2
	q, err := quant.Synthesize(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	l := &p.Layers[0]
	var cursor uint32
	for og := 0; og < l.NOut; og++ {
		addr, length := compiler.WeightBlob(l, opt.ParaOut, og)
		if og == 0 {
			cursor = addr
		}
		if addr != cursor {
			t.Fatalf("og %d blob at %d, want contiguous %d", og, addr, cursor)
		}
		oc := 4
		if og == 2 {
			oc = 2
		}
		want := uint32(oc*4 + oc*3*9) // bias + weights
		if length != want {
			t.Fatalf("og %d blob length %d, want %d", og, length, want)
		}
		cursor += length
	}
	// The final cursor must not exceed the weight image.
	if cursor > p.WeightsAddr+uint32(len(p.Weights)) {
		t.Fatalf("blobs end at %d beyond weight image end %d", cursor, p.WeightsAddr+uint32(len(p.Weights)))
	}
}

// TestLayerBufferNeeds: the Add layer doubles input-buffer demand; fused
// pooling inflates the accumulator demand.
func TestLayerBufferNeeds(t *testing.T) {
	conv := &isa.LayerInfo{
		Op: isa.LayerConv, InC: 8, InH: 16, InW: 16,
		OutC: 8, OutH: 16, OutW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1, Groups: 1,
	}
	add := &isa.LayerInfo{
		Op: isa.LayerAdd, InC: 8, InH: 16, InW: 16,
		OutC: 8, OutH: 16, OutW: 16, KH: 1, KW: 1, Stride: 1, Groups: 1,
	}
	inConv, _, wConv := compiler.LayerBufferNeedsBatch(conv, 4, 4, 1)
	inAdd, _, wAdd := compiler.LayerBufferNeedsBatch(add, 4, 4, 1)
	if inAdd <= inConv {
		t.Errorf("Add input need %d not above conv %d (two operands)", inAdd, inConv)
	}
	if wConv == 0 || wAdd != 0 {
		t.Errorf("weight needs: conv %d (want >0), add %d (want 0)", wConv, wAdd)
	}
	fused := *conv
	fused.FusedPool = 2
	fused.OutH, fused.OutW = 8, 8
	_, outPlain, _ := compiler.LayerBufferNeedsBatch(conv, 4, 4, 1)
	_, outFused, _ := compiler.LayerBufferNeedsBatch(&fused, 4, 4, 1)
	if outFused <= outPlain/2 {
		t.Errorf("fused-pool accumulator demand %d suspiciously small vs plain %d", outFused, outPlain)
	}
}

// TestCompileRejectsBadParallelism and missing params.
func TestCompileErrors(t *testing.T) {
	g := model.NewTinyCNN(3, 16, 16)
	q, err := quant.Synthesize(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compiler.Compile(q, compiler.Options{}); err == nil {
		t.Error("zero parallelism accepted")
	}
	// Remove a conv layer's params.
	delete(q.Params, 1)
	if _, err := compiler.Compile(q, bigAccel()); err == nil {
		t.Error("missing parameters accepted")
	}
}

// TestStatsString renders without panicking and carries the op counts.
func TestStatsString(t *testing.T) {
	opt := bigAccel()
	opt.VI = compiler.VIEvery{}
	g := model.NewTinyCNN(3, 24, 32)
	q, err := quant.Synthesize(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := compiler.Analyze(p)
	s := st.String()
	for _, want := range []string{"CALC_F", "Vir_LOAD_D", "interrupt points"} {
		if !strings.Contains(s, want) {
			t.Errorf("stats rendering missing %q:\n%s", want, s)
		}
	}
	if st.InterruptPoints == 0 || st.Tiles == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

// oracleWeightBlob is WeightBlob as it was before the closed form: the
// offset accumulated one out-group at a time.
func oracleWeightBlob(info *isa.LayerInfo, paraOut, og int) (addr, length uint32) {
	depthwise := info.Groups == info.InC && info.Groups > 1
	icg := info.InC
	if depthwise {
		icg = 1
	}
	per := func(cnt int) uint32 { return uint32(cnt)*4 + uint32(cnt*icg*info.KH*info.KW) }
	var off uint32
	for i := 0; i < og; i++ {
		off += per(min(paraOut, info.OutC-i*paraOut))
	}
	cnt := min(paraOut, info.OutC-og*paraOut)
	return info.WAddr + off, per(cnt)
}

// oracleWeightImage is the weight image as layout built it before it sized
// first and filled in place: each layer's blobs appended byte by byte, the
// layers' blobs appended to the image. Lowering keeps conv layer names, so
// a program layer finds its parameters by name.
func oracleWeightImage(t *testing.T, p *isa.Program, q *quant.Network) []byte {
	t.Helper()
	params := map[string]*quant.LayerParams{}
	for i, l := range q.Graph.Layers {
		if q.Params[i] != nil {
			params[l.Name] = q.Params[i]
		}
	}
	var wimg []byte
	for li := range p.Layers {
		info := &p.Layers[li]
		if info.Op != isa.LayerConv {
			continue
		}
		lp := params[info.Name]
		if lp == nil {
			t.Fatalf("no parameters for conv layer %s", info.Name)
		}
		if want := p.WeightsAddr + uint32(len(wimg)); info.WAddr != want {
			t.Fatalf("layer %s WAddr %d, want %d (images appended in layer order)", info.Name, info.WAddr, want)
		}
		icg := info.InC
		if info.Groups == info.InC && info.Groups > 1 {
			icg = 1
		}
		var out []byte
		var b4 [4]byte
		for og := 0; og < info.NOut; og++ {
			oc0 := og * p.ParaOut
			oc1 := min(oc0+p.ParaOut, info.OutC)
			for oc := oc0; oc < oc1; oc++ {
				binary.LittleEndian.PutUint32(b4[:], uint32(lp.Bias[oc]))
				out = append(out, b4[:]...)
			}
			for oc := oc0; oc < oc1; oc++ {
				base := ((oc * icg) * info.KH) * info.KW
				for j := 0; j < icg*info.KH*info.KW; j++ {
					out = append(out, byte(lp.Weights.Data[base+j]))
				}
			}
		}
		wimg = append(wimg, out...)
	}
	return wimg
}

// TestWeightLayoutPins: on a depthwise network and on one whose last
// out-group is partial, (a) the closed-form WeightBlob equals the
// accumulated-offset original for every conv layer and out-group, (b) the
// blobs tile [WeightsAddr, WeightsAddr+len(Weights)) with no gap or overlap,
// (c) the filled-in-place image equals the append-built original, and (d) a
// timing-only compile lays the program out identically with no image.
func TestWeightLayoutPins(t *testing.T) {
	partial := model.New("partial", 3, 12, 16)
	partial.Conv("c1", 0, 10, 3, 1, 1, true) // 10 channels over ParaOut 4: groups of 4, 4, 2
	partial.Conv("c2", 1, 7, 1, 1, 0, false) // 7 channels: groups of 4, 3
	small := compiler.Options{ParaIn: 4, ParaOut: 4, ParaHeight: 3}
	for _, tc := range []struct {
		g   *model.Network
		opt compiler.Options
	}{
		{partial, small},
		{model.NewMobileNetTiny(), small},
		{model.NewMobileNetV1(3, 32, 32), bigAccel()},
	} {
		q, err := quant.Synthesize(tc.g, 5)
		if err != nil {
			t.Fatal(err)
		}
		opt := tc.opt
		opt.VI = compiler.VIEvery{}
		opt.EmitWeights = true
		p, err := compiler.Compile(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		cursor := p.WeightsAddr
		depthwise, partialGroups := 0, 0
		for li := range p.Layers {
			l := &p.Layers[li]
			if l.Op != isa.LayerConv {
				continue
			}
			if l.Groups == l.InC && l.Groups > 1 {
				depthwise++
			}
			if l.OutC%opt.ParaOut != 0 {
				partialGroups++
			}
			for og := 0; og < l.NOut; og++ {
				addr, length := compiler.WeightBlob(l, opt.ParaOut, og)
				if wa, wl := oracleWeightBlob(l, opt.ParaOut, og); addr != wa || length != wl {
					t.Fatalf("%s layer %s og %d: blob [%d,+%d), original rule says [%d,+%d)", tc.g.Name, l.Name, og, addr, length, wa, wl)
				}
				if addr != cursor {
					t.Fatalf("%s layer %s og %d: blob at %d, previous blob ended at %d", tc.g.Name, l.Name, og, addr, cursor)
				}
				cursor += length
			}
		}
		if end := p.WeightsAddr + uint32(len(p.Weights)); cursor != end {
			t.Fatalf("%s: blobs end at %d, weight image at %d", tc.g.Name, cursor, end)
		}
		if tc.g == partial && partialGroups != 2 || tc.g != partial && depthwise == 0 {
			t.Fatalf("%s: %d depthwise layers, %d with a partial last group: not the shape this case is for", tc.g.Name, depthwise, partialGroups)
		}
		if want := oracleWeightImage(t, p, q); !bytes.Equal(p.Weights, want) {
			t.Fatalf("%s: in-place weight image (%d bytes) differs from the append-built one (%d bytes)", tc.g.Name, len(p.Weights), len(want))
		}

		opt.EmitWeights = false
		bare, err := compiler.Compile(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if bare.Weights != nil {
			t.Errorf("%s: timing-only compile carries a %d-byte weight image", tc.g.Name, len(bare.Weights))
		}
		bare.Weights = p.Weights
		if !reflect.DeepEqual(bare, p) {
			t.Errorf("%s: timing-only compile differs from the functional one beyond the image", tc.g.Name)
		}
	}
}

// TestTimingOnlyCompileStillValidatesParams: shape and bias-length checks do
// not depend on whether the image is materialised.
func TestTimingOnlyCompileStillValidatesParams(t *testing.T) {
	for _, emit := range []bool{false, true} {
		q, err := quant.Synthesize(model.NewTinyCNN(3, 16, 16), 1)
		if err != nil {
			t.Fatal(err)
		}
		opt := bigAccel()
		opt.EmitWeights = emit
		q.Params[1].Bias = q.Params[1].Bias[1:]
		if _, err := compiler.Compile(q, opt); err == nil || !strings.Contains(err.Error(), "bias length") {
			t.Errorf("EmitWeights=%v: short bias: %v", emit, err)
		}
	}
}

// TestCompileAllocationBudget: a compile allocates its outputs and little
// else. With the image embedded that is the image once plus a few copies of
// the instruction stream (emit, the VI pass's rewrite, growth slack);
// timing-only, no term in the weight size at all. The append-built image
// this replaced cost about ten times its own size.
func TestCompileAllocationBudget(t *testing.T) {
	g, err := model.NewResNet(18, 3, 60, 80)
	if err != nil {
		t.Fatal(err)
	}
	q, err := quant.Synthesize(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := accel.Big().CompilerOptions()
	opt.VI = compiler.VIEvery{}
	opt.Check = false
	compile := func(emit bool) (*isa.Program, uint64) {
		opt.EmitWeights = emit
		var p *isa.Program
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p, err = compiler.Compile(q, opt)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return p, m1.TotalAlloc - m0.TotalAlloc
	}
	p, full := compile(true)
	_, bare := compile(false)
	t.Logf("image %d B, %d instructions: functional compile allocates %d B, timing-only %d B", len(p.Weights), len(p.Instrs), full, bare)
	const instrBytes, slack = 28, 256 << 10
	stream := uint64(4 * instrBytes * len(p.Instrs))
	if budget := uint64(len(p.Weights)) + stream + slack; full > budget {
		t.Errorf("compile with a %d-byte image and %d instructions allocated %d bytes, budget %d", len(p.Weights), len(p.Instrs), full, budget)
	}
	if budget := stream + slack; bare > budget || bare >= full/4 {
		t.Errorf("timing-only compile allocated %d bytes: budget %d (no weight term) and under a quarter of the functional compile's %d", bare, budget, full)
	}
}
