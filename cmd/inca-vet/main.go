// inca-vet statically verifies compiled instruction streams: it decodes
// each image (codec v3) and runs the internal/progcheck abstract
// interpreter over it — DDR bounds and declared layout, restore-group
// structure, interrupt-point legality, Vir_SAVE reservations, a resume
// replay from every park point, and an independent re-derivation of the
// embedded worst-case response bound. No engine runs; a stream that
// passes is safe to hand to an IAU or a cluster.
//
// Usage:
//
//	inca-vet [-accel big|small|serving] stream.bin...
//	inca-vet -models dslam
//
// With -models dslam no files are read: the paper's DSLAM task set
// (SuperPoint FE/MAP, ResNet-18 LOOP) is compiled in memory under both
// the every-site and budgeted placements and verified — a self-test of
// the whole compile-verify contract on realistic networks.
//
// Exit status 0 when every stream verifies, 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/progcheck"
	"inca/internal/quant"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("inca-vet", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		accelStr = fs.String("accel", "big", "cost model for the bound re-derivation: big|small|serving")
		noBound  = fs.Bool("no-bound", false, "skip the response-bound re-derivation (structural checks only)")
		verbose  = fs.Bool("v", false, "print per-stream statistics even on success")
		models   = fs.String("models", "", "verify a built-in compiled model set instead of files (dslam)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	var cfg accel.Config
	switch *accelStr {
	case "big":
		cfg = accel.Big()
	case "small":
		cfg = accel.Small()
	case "serving":
		cfg = accel.Serving()
	default:
		fmt.Fprintf(errw, "inca-vet: unknown -accel %q (want big, small, or serving)\n", *accelStr)
		return 1
	}

	var progs []*isa.Program
	switch {
	case *models == "dslam":
		var err error
		progs, err = dslamSet(cfg)
		if err != nil {
			fmt.Fprintf(errw, "inca-vet: building dslam set: %v\n", err)
			return 1
		}
	case *models != "":
		fmt.Fprintf(errw, "inca-vet: unknown -models %q (want dslam)\n", *models)
		return 1
	case fs.NArg() == 0:
		fmt.Fprintln(errw, "inca-vet: no streams given (pass .bin files or -models dslam)")
		fs.Usage()
		return 1
	default:
		for _, path := range fs.Args() {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintf(errw, "inca-vet: %v\n", err)
				return 1
			}
			p, err := isa.Decode(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(errw, "inca-vet: decoding %s: %v\n", path, err)
				return 1
			}
			progs = append(progs, p)
		}
	}

	opt := progcheck.Options{}
	if !*noBound {
		opt.Cost = cfg
	}
	failed := 0
	for _, p := range progs {
		rep := progcheck.Verify(p, opt)
		if !rep.OK() {
			failed++
			fmt.Fprintf(out, "FAIL %s: %d finding(s)\n", p.Name, len(rep.Diags))
			for _, d := range rep.Diags {
				fmt.Fprintf(out, "  %v\n", d)
			}
			if rep.Truncated {
				fmt.Fprintln(out, "  ... further findings truncated")
			}
			continue
		}
		if *verbose {
			bound := "bound unmodeled"
			if rep.BoundChecked {
				bound = fmt.Sprintf("bound %d cycles re-derived exactly", rep.RederivedBound)
			}
			sampled := ""
			if rep.SampledResumes {
				sampled = " (sampled)"
			}
			fmt.Fprintf(out, "ok   %s: %d instrs, %d interrupt points, %d resume replays%s, %s\n",
				p.Name, rep.Instrs, rep.Points, rep.CheckedResumes, sampled, bound)
		} else {
			fmt.Fprintf(out, "ok   %s\n", p.Name)
		}
	}
	if failed > 0 {
		fmt.Fprintf(out, "inca-vet: %d of %d streams failed verification\n", failed, len(progs))
		return 1
	}
	return 0
}

// dslamSet compiles the paper's DSLAM-style task mix (the same networks
// the scheduler benchmark replays) under both placement policies.
func dslamSet(cfg accel.Config) ([]*isa.Program, error) {
	nets := []struct {
		name string
		g    *model.Network
	}{
		{"FE", model.NewSuperPoint(60, 80)},
		{"MAP", model.NewSuperPoint(90, 120)},
	}
	loop, err := model.NewResNet(18, 3, 60, 80)
	if err != nil {
		return nil, err
	}
	nets = append(nets, struct {
		name string
		g    *model.Network
	}{"LOOP", loop})

	var progs []*isa.Program
	for _, n := range nets {
		q, err := quant.Synthesize(n.g, 21)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", n.name, err)
		}
		opt := cfg.CompilerOptions()
		opt.VI = compiler.VIEvery{}
		every, err := compiler.Compile(q, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", n.name, err)
		}
		every.Name = n.name + "/vi-every"
		progs = append(progs, every)

		opt.VI = compiler.VIBudget{MaxResponseCycles: every.ResponseBound * 4}
		budget, err := compiler.Compile(q, opt)
		if err != nil {
			return nil, fmt.Errorf("%s budgeted: %v", n.name, err)
		}
		budget.Name = n.name + "/vi-budget"
		progs = append(progs, budget)
	}
	return progs, nil
}
