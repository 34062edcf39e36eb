// Package compiler lowers a quantized CNN to the accelerator's instruction
// set: it tiles every layer into CalcBlobs according to the hardware
// parallelism (Para_in, Para_out, Para_height), lays out featuremaps and
// weights in the task's DDR arena, emits the original ISA stream, and — per
// Options.VI — runs the INCA virtual-instruction pass that inserts Vir_SAVE /
// Vir_LOAD_D at interrupt positions: after every CALC_F and SAVE (§4.3 of
// the paper, VIEvery) or the minimal cost-model-selected subset that keeps
// the proven worst-case preemption response under a budget (VIBudget,
// emitted as Program.ResponseBound).
package compiler

import (
	"fmt"

	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/progcheck"
	"inca/internal/quant"
)

// Options selects the target parallelism and the compilation mode.
type Options struct {
	// Hardware parallelism the stream is scheduled for.
	ParaIn, ParaOut, ParaHeight int

	// VI selects the virtual-instruction placement policy: VIEvery for the
	// paper's dense rule, VIBudget for cost-model-driven minimal placement
	// under a response budget, VINone (or nil) for an uninterruptible
	// stream.
	VI VIPolicy

	// Cost is the accelerator cycle model used to compute
	// Program.ResponseBound and to drive VIBudget placement. Optional for
	// VIEvery/VINone (the bound is left 0 without it), required by
	// VIBudget. accel.Config.CompilerOptions populates it.
	Cost CostModel

	// Batch compiles a multi-image plan: every featuremap region holds Batch
	// consecutive planes, each LOAD_W is issued once per tile and its weights
	// stay resident while CALC/SAVE iterate over the Batch input planes
	// (weight-fetch traffic amortized Batch-fold). 0 and 1 both mean a
	// single-image plan, which emits exactly the same stream as before.
	Batch int

	// DisableFusion turns off the residual-epilogue fusion pass (conv
	// followed by an Add of its output folds the Add into the conv's
	// requantize pass). Fusion is on by default because it is bit-exact.
	DisableFusion bool

	// BlobsPerSave sets how many CalcBlobs share one SAVE window: 1 stores
	// each out-channel group as soon as CALC_F finishes it (minimal backup
	// on interrupt), larger values batch stores (Fig. 4 of the paper shows
	// a window of 2), and 0 emits a single SAVE per height tile.
	BlobsPerSave int

	// EmitWeights embeds the quantized weight image so the program can run
	// functionally. Timing-only programs omit it to keep large networks
	// cheap to compile.
	EmitWeights bool

	// Check runs the internal/progcheck static verifier over the emitted
	// stream before returning it: layout/bounds of every transfer, restore
	// group well-formedness, interrupt-point legality, Vir_SAVE
	// reservations, per-point resume replays, and (when Cost is set) an
	// independent re-derivation of Program.ResponseBound.
	// accel.Config.CompilerOptions turns it on, so every config-driven
	// compile — core.Deploy*, the cluster workloads, the CLIs, the test
	// suites — self-checks by default; raw Options{} leaves it off.
	Check bool

	// Buffer capacities validated against per-layer requirements. Zero
	// means "don't check".
	InputBufBytes  int
	OutputBufBytes int
	WeightBufBytes int
}

// loweredLayer couples the ISA layer table entry with compile-time-only
// details (source graph index, parameters, input lowered-layer links).
type loweredLayer struct {
	info     isa.LayerInfo
	srcIndex int // index in the model graph (-1 for desugared pool)
	params   *quant.LayerParams
	inFrom   int // lowered index producing the primary input (-1 = network input)
	in2From  int // lowered index producing the residual input (-1 = none)
}

// Compile lowers the quantized network to a program for the given options.
func Compile(q *quant.Network, opt Options) (*isa.Program, error) {
	if opt.ParaIn <= 0 || opt.ParaOut <= 0 || opt.ParaHeight <= 0 {
		return nil, fmt.Errorf("compiler: invalid parallelism (%d,%d,%d)", opt.ParaIn, opt.ParaOut, opt.ParaHeight)
	}
	if opt.Batch < 0 {
		return nil, fmt.Errorf("compiler: invalid batch %d", opt.Batch)
	}
	lowered, err := lower(q)
	if err != nil {
		return nil, err
	}
	if !opt.DisableFusion {
		lowered = fuseResiduals(lowered)
	}
	prog := &isa.Program{
		Name:       q.Graph.Name,
		ParaIn:     opt.ParaIn,
		ParaOut:    opt.ParaOut,
		ParaHeight: opt.ParaHeight,
		Batch:      max(opt.Batch, 1),
	}
	if err := layout(prog, lowered, q, opt); err != nil {
		return nil, err
	}
	if err := checkBuffers(prog, opt); err != nil {
		return nil, err
	}
	em := &emitter{prog: prog, opt: opt}
	em.reserve()
	for li := range prog.Layers {
		em.emitLayer(li)
	}
	em.add(isa.Instruction{Op: isa.OpEnd})
	if err := applyVI(prog, opt); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: emitted invalid program: %w", err)
	}
	if opt.Check {
		if err := progcheck.Check(prog, opt.Cost); err != nil {
			return nil, fmt.Errorf("compiler: emitted unverifiable program: %w", err)
		}
	}
	return prog, nil
}

// lower flattens the model graph into accelerator layers, desugaring fused
// pooling into an explicit pooling layer and dropping CPU-side layers.
func lower(q *quant.Network) ([]loweredLayer, error) {
	g := q.Graph
	shapes := q.Shapes
	// producer maps graph layer index -> lowered index producing its output.
	producer := make([]int, len(g.Layers))
	for i := range producer {
		producer[i] = -2 // not yet produced
	}
	producer[0] = -1 // network input
	var out []loweredLayer

	resolve := func(graphIdx int) (int, error) {
		// CPU-side layers forward their input activation.
		for {
			p := producer[graphIdx]
			if p != -2 {
				return p, nil
			}
			l := &g.Layers[graphIdx]
			switch l.Kind {
			case model.KindGlobalPool, model.KindGeMPool, model.KindFC:
				graphIdx = l.Inputs[0]
			default:
				return 0, fmt.Errorf("compiler: layer %d (%s) consumed before being lowered", graphIdx, l.Name)
			}
		}
	}

	for i := 1; i < len(g.Layers); i++ {
		l := &g.Layers[i]
		switch l.Kind {
		case model.KindConv:
			from, err := resolve(l.Inputs[0])
			if err != nil {
				return nil, err
			}
			in := shapes[l.Inputs[0]]
			groups := l.Groups
			if groups == -1 {
				groups = in.C
			}
			if groups != 1 && groups != in.C {
				return nil, fmt.Errorf("compiler: layer %s: only dense (groups=1) and depthwise (groups=InC) convolutions are supported, got groups=%d", l.Name, groups)
			}
			outC := l.OutC
			if outC == -1 {
				outC = in.C
			}
			convH := (in.H+2*l.Pad-l.KH)/l.Stride + 1
			convW := (in.W+2*l.Pad-l.KW)/l.Stride + 1
			p := q.Params[i]
			if p == nil {
				return nil, fmt.Errorf("compiler: conv layer %s has no quantized parameters", l.Name)
			}
			outH, outW, fp := convH, convW, 0
			if l.FusedPool > 1 {
				// Pooling fused into the conv's output path: the layer's
				// SAVEd featuremap is already pooled, avoiding a
				// full-resolution DDR round trip (as Angel-Eye lowers VGG).
				// Odd trailing conv rows/columns are dropped, matching
				// floor-mode pooling.
				fp = l.FusedPool
				outH, outW = convH/fp, convW/fp
				if outH == 0 || outW == 0 {
					return nil, fmt.Errorf("compiler: layer %s conv output %dx%d collapses under fused pool %d", l.Name, convH, convW, fp)
				}
			}
			out = append(out, loweredLayer{
				info: isa.LayerInfo{
					Op: isa.LayerConv, Name: l.Name,
					InC: in.C, InH: in.H, InW: in.W,
					OutC: outC, OutH: outH, OutW: outW,
					KH: l.KH, KW: l.KW, Stride: l.Stride, Pad: l.Pad,
					Groups: groups, Shift: p.Shift, ReLU: l.ReLU,
					FusedPool: fp,
				},
				srcIndex: i, params: p, inFrom: from, in2From: -1,
			})
			producer[i] = len(out) - 1
		case model.KindMaxPool:
			from, err := resolve(l.Inputs[0])
			if err != nil {
				return nil, err
			}
			in := shapes[l.Inputs[0]]
			o := shapes[i]
			out = append(out, loweredLayer{
				info: isa.LayerInfo{
					Op: isa.LayerPool, Name: l.Name,
					InC: in.C, InH: in.H, InW: in.W,
					OutC: o.C, OutH: o.H, OutW: o.W,
					KH: l.KH, KW: l.KW, Stride: l.Stride, Groups: 1,
				},
				srcIndex: i, inFrom: from, in2From: -1,
			})
			producer[i] = len(out) - 1
		case model.KindAdd:
			a, err := resolve(l.Inputs[0])
			if err != nil {
				return nil, err
			}
			b, err := resolve(l.Inputs[1])
			if err != nil {
				return nil, err
			}
			// Branch scale alignment: the datapath right-shifts the second
			// input, so swap operands when the first one needs the shift.
			var shift uint8
			if p := q.Params[i]; p != nil {
				shift = p.Shift
				if p.AddSwap {
					a, b = b, a
				}
			}
			s := shapes[i]
			out = append(out, loweredLayer{
				info: isa.LayerInfo{
					Op: isa.LayerAdd, Name: l.Name,
					InC: s.C, InH: s.H, InW: s.W,
					OutC: s.C, OutH: s.H, OutW: s.W,
					KH: 1, KW: 1, Stride: 1, Groups: 1, ReLU: l.ReLU,
					Shift: shift,
				},
				srcIndex: i, inFrom: a, in2From: b,
			})
			producer[i] = len(out) - 1
		case model.KindGlobalPool, model.KindGeMPool, model.KindFC:
			// CPU-side; resolved lazily by consumers.
		default:
			return nil, fmt.Errorf("compiler: unsupported layer kind %v (%s)", l.Kind, l.Name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("compiler: network %q has no accelerator-resident layers", g.Name)
	}
	return out, nil
}

// fuseResiduals folds residual Add layers into the convolution producing
// their primary operand: when layer j = i+1 is an Add whose unshifted operand
// (post-AddSwap) is conv i's output, conv i is the Add's sole consumer of
// that output, and the shifted operand comes from elsewhere, the Add
// disappears into conv i's requantize pass —
//
//	out = SaturateAdd(Requantize(acc, bias, Shift, ReLU), res>>AddShift, AddReLU)
//
// — which is arithmetically identical to the unfused two-layer sequence but
// eliminates the Add layer's full featuremap DDR round-trip (write by the
// conv, two reads and a write by the Add). The residual operand is streamed
// at output resolution through Which=1 LOAD_D. Compatible with FusedPool:
// the addition applies to the pooled pixel, exactly as the standalone Add
// consumed the pooled featuremap.
func fuseResiduals(lowered []loweredLayer) []loweredLayer {
	consumers := make([]int, len(lowered)) // uses of each lowered layer's output
	for i := range lowered {
		if f := lowered[i].inFrom; f >= 0 {
			consumers[f]++
		}
		if f := lowered[i].in2From; f >= 0 {
			consumers[f]++
		}
	}
	out := make([]loweredLayer, 0, len(lowered))
	remap := make([]int, len(lowered))
	for i := 0; i < len(lowered); i++ {
		ll := lowered[i]
		// Remap input links to post-fusion indices.
		if ll.inFrom >= 0 {
			ll.inFrom = remap[ll.inFrom]
		}
		if ll.in2From >= 0 {
			ll.in2From = remap[ll.in2From]
		}
		if ll.info.Op == isa.LayerConv && !ll.info.FusedAdd && i+1 < len(lowered) {
			add := &lowered[i+1]
			if add.info.Op == isa.LayerAdd && add.inFrom == i && add.in2From != i &&
				consumers[i] == 1 &&
				add.info.OutC == ll.info.OutC && add.info.OutH == ll.info.OutH && add.info.OutW == ll.info.OutW {
				ll.info.FusedAdd = true
				ll.info.AddShift = add.info.Shift
				ll.info.AddReLU = add.info.ReLU
				ll.in2From = add.in2From
				if ll.in2From >= 0 {
					ll.in2From = remap[ll.in2From]
				}
				out = append(out, ll)
				remap[i] = len(out) - 1
				remap[i+1] = len(out) - 1 // Add consumers read the fused conv
				i++
				continue
			}
		}
		out = append(out, ll)
		remap[i] = len(out) - 1
	}
	return out
}

const regionAlign = 64

func alignUp(x uint32) uint32 {
	return (x + regionAlign - 1) &^ (regionAlign - 1)
}
