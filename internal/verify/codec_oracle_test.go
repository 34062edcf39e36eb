package verify

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
)

// The codec the repo shipped before Encode/Decode packed instruction records
// by hand and moved the weight image in bulk: every record through
// reflection-based binary.Write/Read, weights one element at a time. Kept
// here, bodies unchanged but for the element type of Program.Weights, as the
// reference the current codec must equal byte for byte — the wire format is
// not allowed to move.

const (
	oracleMagic   = "INCA"
	oracleVersion = 3
)

type oracleHeader struct {
	Version    uint16
	Flags      uint16
	ParaIn     uint16
	ParaOut    uint16
	ParaHeight uint16
	Batch      uint16
	NameLen    uint16
}

type oracleCounts struct {
	NLayers     uint32
	NInstrs     uint32
	DDRBytes    uint32
	InputAddr   uint32
	InputBytes  uint32
	OutputAddr  uint32
	OutputBytes uint32
	WeightsAddr uint32
	WeightsLen  uint32
}

type oracleLayer struct {
	Op        uint8
	Shift     uint8
	ReLU      uint8
	FusedPool uint8
	FusedAdd  uint8
	AddShift  uint8
	AddReLU   uint8
	_         uint8 // pad
	InC       uint32
	InH       uint32
	InW       uint32
	OutC      uint32
	OutH      uint32
	OutW      uint32
	KH        uint16
	KW        uint16
	Stride    uint16
	Pad       uint16
	Groups    uint32
	InAddr    uint32
	In2Addr   uint32
	OutAddr   uint32
	WAddr     uint32
	NIn       uint32
	NOut      uint32
	NTiles    uint32
}

type oracleInstr struct {
	Op     uint8
	Which  uint8
	Layer  uint16
	InG    uint16
	OutG   uint16
	Row0   uint16
	Rows   uint16
	Tile   uint16
	Bat    uint16
	SaveID uint32
	Addr   uint32
	Len    uint32
}

func oracleB2U(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func oracleEncode(w io.Writer, p *isa.Program) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(oracleMagic); err != nil {
		return err
	}
	hdr := oracleHeader{
		Version:    oracleVersion,
		ParaIn:     uint16(p.ParaIn),
		ParaOut:    uint16(p.ParaOut),
		ParaHeight: uint16(p.ParaHeight),
		Batch:      uint16(p.Batch),
		NameLen:    uint16(len(p.Name)),
	}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if _, err := bw.WriteString(p.Name); err != nil {
		return err
	}
	counts := oracleCounts{
		NLayers:     uint32(len(p.Layers)),
		NInstrs:     uint32(len(p.Instrs)),
		DDRBytes:    p.DDRBytes,
		InputAddr:   p.InputAddr,
		InputBytes:  p.InputBytes,
		OutputAddr:  p.OutputAddr,
		OutputBytes: p.OutputBytes,
		WeightsAddr: p.WeightsAddr,
		WeightsLen:  uint32(len(p.Weights)),
	}
	if err := binary.Write(bw, binary.LittleEndian, counts); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, p.ResponseBound); err != nil {
		return err
	}
	for i := range p.Layers {
		l := &p.Layers[i]
		fl := oracleLayer{
			Op: uint8(l.Op), Shift: l.Shift, ReLU: oracleB2U(l.ReLU), FusedPool: uint8(l.FusedPool),
			FusedAdd: oracleB2U(l.FusedAdd), AddShift: l.AddShift, AddReLU: oracleB2U(l.AddReLU),
			InC: uint32(l.InC), InH: uint32(l.InH), InW: uint32(l.InW),
			OutC: uint32(l.OutC), OutH: uint32(l.OutH), OutW: uint32(l.OutW),
			KH: uint16(l.KH), KW: uint16(l.KW), Stride: uint16(l.Stride), Pad: uint16(l.Pad),
			Groups: uint32(l.Groups),
			InAddr: l.InAddr, In2Addr: l.In2Addr, OutAddr: l.OutAddr, WAddr: l.WAddr,
			NIn: uint32(l.NIn), NOut: uint32(l.NOut), NTiles: uint32(l.NTiles),
		}
		if err := binary.Write(bw, binary.LittleEndian, fl); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(l.Name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(l.Name); err != nil {
			return err
		}
	}
	for _, in := range p.Instrs {
		fi := oracleInstr{
			Op: uint8(in.Op), Which: in.Which, Layer: in.Layer,
			InG: in.InG, OutG: in.OutG, Row0: in.Row0, Rows: in.Rows, Tile: in.Tile,
			Bat: in.Bat, SaveID: in.SaveID, Addr: in.Addr, Len: in.Len,
		}
		if err := binary.Write(bw, binary.LittleEndian, fi); err != nil {
			return err
		}
	}
	if len(p.Weights) > 0 {
		raw := make([]byte, len(p.Weights))
		for i, v := range p.Weights {
			raw[i] = byte(v)
		}
		if _, err := bw.Write(raw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func oracleDecode(r io.Reader) (*isa.Program, error) {
	br := bufio.NewReader(r)
	mg := make([]byte, len(oracleMagic))
	if _, err := io.ReadFull(br, mg); err != nil {
		return nil, fmt.Errorf("isa: reading magic: %w", err)
	}
	if string(mg) != oracleMagic {
		return nil, fmt.Errorf("isa: bad magic %q", mg)
	}
	var hdr oracleHeader
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("isa: reading header: %w", err)
	}
	if hdr.Version != oracleVersion {
		return nil, fmt.Errorf("isa: unsupported version %d", hdr.Version)
	}
	name := make([]byte, hdr.NameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("isa: reading name: %w", err)
	}
	var counts oracleCounts
	if err := binary.Read(br, binary.LittleEndian, &counts); err != nil {
		return nil, fmt.Errorf("isa: reading counts: %w", err)
	}
	var respBound uint64
	if err := binary.Read(br, binary.LittleEndian, &respBound); err != nil {
		return nil, fmt.Errorf("isa: reading response bound: %w", err)
	}
	const prealloc = 1 << 12
	p := &isa.Program{
		Name:          string(name),
		ResponseBound: respBound,
		ParaIn:        int(hdr.ParaIn),
		ParaOut:       int(hdr.ParaOut),
		ParaHeight:    int(hdr.ParaHeight),
		Batch:         int(hdr.Batch),
		Layers:        make([]isa.LayerInfo, 0, min(int(counts.NLayers), prealloc)),
		Instrs:        make([]isa.Instruction, 0, min(int(counts.NInstrs), prealloc)),
		DDRBytes:      counts.DDRBytes,
		InputAddr:     counts.InputAddr, InputBytes: counts.InputBytes,
		OutputAddr: counts.OutputAddr, OutputBytes: counts.OutputBytes,
		WeightsAddr: counts.WeightsAddr,
	}
	for i := 0; i < int(counts.NLayers); i++ {
		var fl oracleLayer
		if err := binary.Read(br, binary.LittleEndian, &fl); err != nil {
			return nil, fmt.Errorf("isa: reading layer %d: %w", i, err)
		}
		var nl uint16
		if err := binary.Read(br, binary.LittleEndian, &nl); err != nil {
			return nil, fmt.Errorf("isa: reading layer %d name len: %w", i, err)
		}
		ln := make([]byte, nl)
		if _, err := io.ReadFull(br, ln); err != nil {
			return nil, fmt.Errorf("isa: reading layer %d name: %w", i, err)
		}
		p.Layers = append(p.Layers, isa.LayerInfo{
			Op: isa.LayerOp(fl.Op), Name: string(ln),
			InC: int(fl.InC), InH: int(fl.InH), InW: int(fl.InW),
			OutC: int(fl.OutC), OutH: int(fl.OutH), OutW: int(fl.OutW),
			KH: int(fl.KH), KW: int(fl.KW), Stride: int(fl.Stride), Pad: int(fl.Pad),
			Groups: int(fl.Groups), Shift: fl.Shift, ReLU: fl.ReLU != 0, FusedPool: int(fl.FusedPool),
			FusedAdd: fl.FusedAdd != 0, AddShift: fl.AddShift, AddReLU: fl.AddReLU != 0,
			InAddr: fl.InAddr, In2Addr: fl.In2Addr, OutAddr: fl.OutAddr, WAddr: fl.WAddr,
			NIn: int(fl.NIn), NOut: int(fl.NOut), NTiles: int(fl.NTiles),
		})
	}
	for i := 0; i < int(counts.NInstrs); i++ {
		var fi oracleInstr
		if err := binary.Read(br, binary.LittleEndian, &fi); err != nil {
			return nil, fmt.Errorf("isa: reading instr %d: %w", i, err)
		}
		p.Instrs = append(p.Instrs, isa.Instruction{
			Op: isa.Op(fi.Op), Which: fi.Which, Layer: fi.Layer,
			InG: fi.InG, OutG: fi.OutG, Row0: fi.Row0, Rows: fi.Rows, Tile: fi.Tile,
			Bat: fi.Bat, SaveID: fi.SaveID, Addr: fi.Addr, Len: fi.Len,
		})
	}
	if counts.WeightsLen > 0 {
		p.Weights = make([]byte, 0, min(int(counts.WeightsLen), prealloc))
		var chunk [4096]byte
		for remaining := int(counts.WeightsLen); remaining > 0; {
			n := min(remaining, len(chunk))
			if _, err := io.ReadFull(br, chunk[:n]); err != nil {
				return nil, fmt.Errorf("isa: reading weights: %w", err)
			}
			for _, b := range chunk[:n] {
				p.Weights = append(p.Weights, b)
			}
			remaining -= n
		}
	}
	return p, nil
}

// checkCodecAgainstOracle: the current Encode writes exactly the oracle's
// bytes, and the two Decodes read them to deep-equal programs.
func checkCodecAgainstOracle(t *testing.T, label string, p *isa.Program) {
	t.Helper()
	var got, want bytes.Buffer
	if err := isa.Encode(&got, p); err != nil {
		t.Fatalf("%s: Encode: %v", label, err)
	}
	if err := oracleEncode(&want, p); err != nil {
		t.Fatalf("%s: oracle Encode: %v", label, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: Encode wrote %d bytes that differ from the oracle's %d", label, got.Len(), want.Len())
	}
	back, err := isa.Decode(bytes.NewReader(got.Bytes()))
	if err != nil {
		t.Fatalf("%s: Decode: %v", label, err)
	}
	ref, err := oracleDecode(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatalf("%s: oracle Decode: %v", label, err)
	}
	if !reflect.DeepEqual(back, ref) {
		t.Fatalf("%s: Decode and the oracle Decode disagree on the same image", label)
	}
}

// TestCodecMatchesOracleModels: the DSLAM model set under both placement
// policies with its weight images, and TinyCNN single and batched plans.
func TestCodecMatchesOracleModels(t *testing.T) {
	cfg := accel.Small()
	r18, err := model.NewResNet(18, 3, 60, 80)
	if err != nil {
		t.Fatal(err)
	}
	nets := []struct {
		g       *model.Network
		batches []int
	}{
		{model.NewSuperPoint(60, 80), []int{1}},
		{model.NewSuperPoint(90, 120), []int{1}},
		{r18, []int{1}},
		{model.NewTinyCNN(3, 24, 32), []int{1, 4}},
	}
	for _, n := range nets {
		q, err := quant.Synthesize(n.g, 21)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range n.batches {
			opt := cfg.CompilerOptions()
			opt.EmitWeights = true
			opt.Batch = batch
			opt.VI = compiler.VIEvery{}
			every, err := compiler.Compile(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.VI = compiler.VIBudget{MaxResponseCycles: 4 * every.ResponseBound}
			budget, err := compiler.Compile(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.VI = compiler.VINone{}
			opt.EmitWeights = false
			bare, err := compiler.Compile(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			for tag, p := range map[string]*isa.Program{"every": every, "budget": budget, "none/weightless": bare} {
				label := fmt.Sprintf("%s %dx%d b=%d %s", n.g.Name, n.g.InH, n.g.InW, batch, tag)
				checkCodecAgainstOracle(t, label, p)
			}
		}
	}
}

// TestCodecMatchesOracleCorpus: every victim the deterministic fuzz
// population compiles, across its recipe, config, batch and placement axes.
func TestCodecMatchesOracleCorpus(t *testing.T) {
	cases := 0
	for index := 0; cases < wantCases; index++ {
		if index >= 3*wantCases {
			t.Fatalf("only %d/%d generated cases compiled after %d draws", cases, wantCases, index)
		}
		c := NewCase(masterSeed, index)
		p, _, err := compileVictim(c, Configs()[c.CfgIdx], mix(c.Seed, c.Index)^0xDDC0FFEE)
		if IsSkip(err) {
			continue
		}
		if err != nil {
			t.Fatalf("case %s: compile: %v", c, err)
		}
		checkCodecAgainstOracle(t, c.String(), p)
		cases++
	}
}

// TestDecodeRejectsEveryStrictPrefix: a truncated image never decodes — no
// panic, no partial program — wherever the cut falls: inside the header, a
// layer record, an instruction record or the weight image.
func TestDecodeRejectsEveryStrictPrefix(t *testing.T) {
	p, _, err := compileRecipe(probeRecipe(), Configs()[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := isa.Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	if len(p.Weights) == 0 || len(p.Instrs) == 0 {
		t.Fatal("probe image exercises neither the instruction nor the weight section")
	}
	for n := 0; n < len(img); n++ {
		q, err := isa.Decode(bytes.NewReader(img[:n]))
		if err == nil || q != nil {
			t.Fatalf("prefix of %d/%d bytes decoded (program %v, err %v)", n, len(img), q != nil, err)
		}
	}
	if _, err := isa.Decode(bytes.NewReader(img)); err != nil {
		t.Fatalf("the whole image does not decode: %v", err)
	}
}
