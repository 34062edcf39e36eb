package bench

// The datapath benchmark behind `inca-bench -suite=datapath` and `make bench-gate`:
// it measures the batched serving datapath (PR "batched inference" tentpole)
// on a fixed kernel suite and emits the snapshot checked in as
// BENCH_datapath.json. Every number is *modeled* (deterministic cycle model),
// so Gate compares the file byte for byte. Host throughput is not measured
// here: the benchmark's host_ops_per_s and accel.gmacs_per_s and `make bench`
// own it.

import (
	"fmt"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
)

// DatapathBatch is the batched operating point the snapshot records next to
// the single-image baseline.
const DatapathBatch = 8

// DatapathKernel is one kernel's measurements at B=1 and B=8.
type DatapathKernel struct {
	Kernel string `json:"kernel"`

	// Modeled throughput from the cycle model under the serving
	// configuration.
	ModelGMACsB1 float64 `json:"model_gmacs_b1"`
	ModelGMACsB8 float64 `json:"model_gmacs_b8"`

	// Modeled transfer (fetch) cycles per batch element: the weight-traffic
	// amortization the batched plans exist for.
	FetchCyclesPerElemB1 float64 `json:"fetch_cycles_per_elem_b1"`
	FetchCyclesPerElemB8 float64 `json:"fetch_cycles_per_elem_b8"`

	// ModelSpeedup is ModelGMACsB8 / ModelGMACsB1.
	ModelSpeedup float64 `json:"model_speedup"`
}

// DatapathSnapshot is the checked-in benchmark baseline.
type DatapathSnapshot struct {
	Config  string           `json:"config"`
	Batch   int              `json:"batch"`
	Kernels []DatapathKernel `json:"kernels"`
}

// datapathCase is one kernel in the fixed suite. Shapes are chosen so the
// dense 3x3 case is weight-bound (large InC*OutC, tiny featuremap): exactly
// the serving regime where LOAD_W amortization dominates.
type datapathCase struct {
	name  string
	build func() *model.Network
}

func datapathCases() []datapathCase {
	return []datapathCase{
		{"dense3x3", func() *model.Network {
			n := model.New("dense3x3", 128, 4, 4)
			n.Conv("c", 0, 128, 3, 1, 1, true)
			return n
		}},
		{"pointwise1x1", func() *model.Network {
			n := model.New("pointwise1x1", 128, 8, 8)
			n.Conv("c", 0, 128, 1, 1, 0, true)
			return n
		}},
		{"generic5x5", func() *model.Network {
			n := model.New("generic5x5", 32, 8, 8)
			n.Conv("c", 0, 32, 5, 1, 2, true)
			return n
		}},
		{"resfused", func() *model.Network {
			n := model.New("resfused", 64, 8, 8)
			a := n.Conv("a", 0, 64, 3, 1, 1, true)
			b := n.Conv("b", 0, 64, 1, 1, 0, false)
			// Primary operand first (the immediately preceding conv b), so
			// the Add fuses into b's epilogue — the path this kernel measures.
			n.Residual("r", b, a, true)
			return n
		}},
	}
}

// macsPerElement counts multiply-accumulates of one batch element from the
// compiled plan's conv layers (pool/add layers contribute none).
func macsPerElement(p *isa.Program) float64 {
	var macs float64
	for i := range p.Layers {
		l := &p.Layers[i]
		if l.Op != isa.LayerConv {
			continue
		}
		ch, cw := l.OutH, l.OutW
		if l.FusedPool > 1 {
			ch, cw = l.OutH*l.FusedPool, l.OutW*l.FusedPool
		}
		macs += float64(l.OutC) * float64(ch) * float64(cw) *
			float64(l.InC/l.Groups) * float64(l.KH) * float64(l.KW)
	}
	return macs
}

// compileDatapath lowers a kernel net for the serving config at one batch.
func compileDatapath(g *model.Network, cfg accel.Config, batch int) (*isa.Program, error) {
	q, err := quant.Synthesize(g, 7)
	if err != nil {
		return nil, err
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	opt.Batch = batch
	return compiler.Compile(q, opt)
}

// runStream prices the program's real instructions once, timing-only, and
// returns (total modeled cycles, transfer cycles). With no arena and nothing
// to skip, Exec cannot fail.
func runStream(cfg accel.Config, p *isa.Program) (total, xfer uint64) {
	eng := accel.NewEngine(cfg)
	defer eng.Close()
	for i := range p.Instrs {
		if in := &p.Instrs[i]; !in.Op.Virtual() {
			c, _ := eng.ExecRef(nil, p, in, 0)
			total += c
		}
	}
	_, xfer, _ = eng.CycleStats()
	return total, xfer
}

// Datapath measures the kernel suite under the serving configuration at B=1
// and B=8.
func Datapath() (*DatapathSnapshot, *Table, error) {
	cfg := accel.Serving()
	snap := &DatapathSnapshot{Config: cfg.Name, Batch: DatapathBatch}
	t := &Table{
		ID:    "DATAPATH",
		Title: fmt.Sprintf("batched serving datapath (%s, B=1 vs B=%d)", cfg.Name, DatapathBatch),
		Columns: []string{"kernel", "model GMACs/s B1", "model GMACs/s B8", "model speedup",
			"fetch cyc/elem B1", "fetch cyc/elem B8"},
	}
	for _, kc := range datapathCases() {
		g := kc.build()
		k := DatapathKernel{Kernel: kc.name}
		var perElem [2]float64 // modeled seconds per element at B=1, B=8
		for i, batch := range []int{1, DatapathBatch} {
			p, err := compileDatapath(g, cfg, batch)
			if err != nil {
				return nil, nil, fmt.Errorf("datapath %s B=%d: %v", kc.name, batch, err)
			}
			if kc.name == "resfused" {
				if st := compiler.Analyze(p); st.FusedAdds == 0 {
					return nil, nil, fmt.Errorf("datapath %s B=%d: residual Add did not fuse — kernel would measure the unfused path", kc.name, batch)
				}
			}
			macs := macsPerElement(p) * float64(batch)
			cycles, xfer := runStream(cfg, p)
			modelGMACs := macs / cfg.CyclesToSeconds(cycles) / 1e9
			perElem[i] = cfg.CyclesToSeconds(cycles) / float64(batch)
			if batch == 1 {
				k.ModelGMACsB1 = modelGMACs
				k.FetchCyclesPerElemB1 = float64(xfer)
			} else {
				k.ModelGMACsB8 = modelGMACs
				k.FetchCyclesPerElemB8 = float64(xfer) / float64(batch)
			}
		}
		k.ModelSpeedup = perElem[0] / perElem[1]
		snap.Kernels = append(snap.Kernels, k)
		t.AddRow(k.Kernel,
			fmt.Sprintf("%.3f", k.ModelGMACsB1), fmt.Sprintf("%.3f", k.ModelGMACsB8),
			fmt.Sprintf("%.2fx", k.ModelSpeedup),
			fmt.Sprintf("%.0f", k.FetchCyclesPerElemB1), fmt.Sprintf("%.0f", k.FetchCyclesPerElemB8))
	}
	t.AddNote("every column is deterministic (cycle model, %s)", cfg.Name)
	t.AddNote("fetch cyc/elem counts all LOAD/SAVE transfer cycles after prefetch hiding, per batch element")
	return snap, t, nil
}
