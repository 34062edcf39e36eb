package compiler

import (
	"encoding/binary"
	"fmt"

	"inca/internal/isa"
	"inca/internal/quant"
)

// layout assigns DDR regions for the network input, every lowered layer's
// output featuremap, and the weight image; it finalizes prog.Layers and,
// when opt.EmitWeights is set, builds the weight image the functional engine
// loads into the arena. Parameters are validated either way.
func layout(prog *isa.Program, lowered []loweredLayer, q *quant.Network, opt Options) error {
	g := q.Graph
	// Every featuremap region holds BatchN consecutive planes; InputBytes /
	// OutputBytes stay per-element (callers address element b at
	// base + b*bytes).
	batch := uint32(prog.BatchN())
	inputBytes := uint32(g.InC * g.InH * g.InW)
	cursor := alignUp(inputBytes * batch)
	prog.InputAddr = 0
	prog.InputBytes = inputBytes

	outAddr := make([]uint32, len(lowered))
	for i := range lowered {
		ll := &lowered[i]
		sz := uint32(ll.info.OutC*ll.info.OutH*ll.info.OutW) * batch
		outAddr[i] = cursor
		cursor = alignUp(cursor + sz)
	}

	// Weight image: per conv layer, per out-channel group, a blob of
	// [int32 bias × oCnt][int8 weights, oc-major]. Its length is a closed
	// form of the layer shapes, so addresses are assigned first and the
	// image, when asked for, is made once and filled in place.
	prog.WeightsAddr = cursor
	var wlen uint32
	for i := range lowered {
		ll := &lowered[i]
		if ll.info.Op != isa.LayerConv {
			continue
		}
		if err := checkWeights(ll); err != nil {
			return err
		}
		ll.info.WAddr = prog.WeightsAddr + wlen
		wlen += blobBytes(&ll.info, ll.info.OutC)
	}
	cursor = alignUp(cursor + wlen)
	prog.DDRBytes = cursor
	if opt.EmitWeights {
		prog.Weights = make([]byte, wlen)
		for i := range lowered {
			ll := &lowered[i]
			if ll.info.Op == isa.LayerConv {
				fillWeightBlobs(prog.Weights[ll.info.WAddr-prog.WeightsAddr:], ll, prog.ParaOut)
			}
		}
	}

	// Finalize the layer table with tiling counts and region links.
	prog.Layers = make([]isa.LayerInfo, len(lowered))
	for i := range lowered {
		ll := &lowered[i]
		info := ll.info
		if ll.inFrom == -1 {
			info.InAddr = prog.InputAddr
		} else {
			info.InAddr = outAddr[ll.inFrom]
		}
		if ll.in2From >= 0 {
			info.In2Addr = outAddr[ll.in2From]
		}
		info.OutAddr = outAddr[i]
		info.NOut = ceilDiv(info.OutC, prog.ParaOut)
		info.NTiles = ceilDiv(info.OutH, prog.ParaHeight)
		info.NIn = 1
		if info.Op == isa.LayerConv {
			info.NIn = ceilDiv(inPerOut(&info), prog.ParaIn)
		}
		prog.Layers[i] = info
	}

	last := prog.Layers[len(prog.Layers)-1]
	prog.OutputAddr = last.OutAddr
	prog.OutputBytes = uint32(last.OutC * last.OutH * last.OutW)
	return nil
}

// inPerOut is the number of input channels one output channel convolves.
func inPerOut(info *isa.LayerInfo) int {
	if info.Groups == info.InC && info.Groups > 1 {
		return 1 // depthwise
	}
	return info.InC
}

// blobBytes is the size of a bias+weights blob covering cnt output channels.
func blobBytes(info *isa.LayerInfo, cnt int) uint32 {
	return uint32(cnt)*4 + uint32(cnt*inPerOut(info)*info.KH*info.KW)
}

// checkWeights validates a conv layer's parameters against its shape.
func checkWeights(ll *loweredLayer) error {
	info := &ll.info
	p := ll.params
	if p == nil || p.Weights == nil {
		return fmt.Errorf("compiler: conv layer %s missing weights", info.Name)
	}
	icg := inPerOut(info)
	ws := p.Weights.Shape
	if ws[0] != info.OutC || ws[1] != icg || ws[2] != info.KH || ws[3] != info.KW {
		return fmt.Errorf("compiler: conv layer %s weight shape %v, want [%d %d %d %d]", info.Name, ws, info.OutC, icg, info.KH, info.KW)
	}
	if len(p.Bias) != info.OutC {
		return fmt.Errorf("compiler: conv layer %s bias length %d, want %d", info.Name, len(p.Bias), info.OutC)
	}
	return nil
}

// fillWeightBlobs writes a checked conv layer's parameters in LOAD_W order
// at the start of dst, the layer's slice of the weight image.
func fillWeightBlobs(dst []byte, ll *loweredLayer, paraOut int) {
	info := &ll.info
	p := ll.params
	per := inPerOut(info) * info.KH * info.KW // int8 weights per output channel
	for oc0 := 0; oc0 < info.OutC; oc0 += paraOut {
		oc1 := min(oc0+paraOut, info.OutC)
		for oc := oc0; oc < oc1; oc++ {
			binary.LittleEndian.PutUint32(dst, uint32(p.Bias[oc]))
			dst = dst[4:]
		}
		// The tensor is oc-major, so a group's weights are one run.
		run := p.Weights.Data[oc0*per : oc1*per]
		blob := dst[:len(run)]
		for j, w := range run {
			blob[j] = byte(w)
		}
		dst = dst[len(run):]
	}
}

// WeightBlob locates the LOAD_W transfer for (layer, outGroup):
// address and length of the bias+weights blob. Only the last group can be
// partial, so every earlier one is a full paraOut blob.
func WeightBlob(info *isa.LayerInfo, paraOut, og int) (addr, length uint32) {
	cnt := min(paraOut, info.OutC-og*paraOut)
	return info.WAddr + uint32(og)*blobBytes(info, paraOut), blobBytes(info, cnt)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// checkBuffers validates that every layer's working set fits the configured
// on-chip buffer capacities (when non-zero).
func checkBuffers(prog *isa.Program, opt Options) error {
	for i := range prog.Layers {
		l := &prog.Layers[i]
		inNeed, outNeed, wNeed := LayerBufferNeedsBatch(l, prog.ParaOut, prog.ParaHeight, prog.BatchN())
		if opt.InputBufBytes > 0 && inNeed > opt.InputBufBytes {
			return fmt.Errorf("compiler: layer %s input window %d B exceeds input buffer %d B", l.Name, inNeed, opt.InputBufBytes)
		}
		if opt.OutputBufBytes > 0 && outNeed > opt.OutputBufBytes {
			return fmt.Errorf("compiler: layer %s output tile %d B exceeds output buffer %d B", l.Name, outNeed, opt.OutputBufBytes)
		}
		if opt.WeightBufBytes > 0 && wNeed > opt.WeightBufBytes {
			return fmt.Errorf("compiler: layer %s weight blob %d B exceeds weight buffer %d B", l.Name, wNeed, opt.WeightBufBytes)
		}
	}
	return nil
}

// LayerBufferNeedsBatch returns the worst-case on-chip bytes a layer needs
// in the input, output, and weight buffers for a plan of batch images: the
// input buffer holds one resident row window per batch element (so weights
// loaded once per tile serve all of them), while the output tile and weight
// blob are per-element/per-group and do not scale with the batch.
func LayerBufferNeedsBatch(l *isa.LayerInfo, paraOut, paraHeight, batch int) (in, out, weights int) {
	if batch < 1 {
		batch = 1
	}
	rows := min(paraHeight, l.OutH)
	_, crows := l.ConvRows(0, rows)
	window := (crows-1)*l.Stride + l.KH
	if window > l.InH {
		window = l.InH
	}
	in = l.InC * window * l.InW
	if l.Op == isa.LayerAdd {
		in *= 2
	}
	if l.FusedAdd {
		// The residual operand streams in at output resolution.
		in += l.OutC * rows * l.OutW
	}
	in *= batch
	// Final int8 results for one tile of one element plus int32 accumulators
	// (at convolution resolution) for one out-channel group.
	out = l.OutC*rows*l.OutW + min(paraOut, l.OutC)*crows*l.ConvW()*4
	if l.Op == isa.LayerConv {
		_, length := WeightBlob(l, paraOut, 0)
		weights = int(length)
	}
	return in, out, weights
}
