package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/quant"
)

func compileTiny(t *testing.T) (*isa.Program, accel.Config) {
	t.Helper()
	cfg := accel.Small()
	g := model.NewTinyCNN(3, 24, 32)
	q, err := quant.Synthesize(g, 11)
	if err != nil {
		t.Fatal(err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	p, err := compiler.Compile(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p, cfg
}

func writeStream(t *testing.T, p *isa.Program) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := isa.Encode(f, p); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVetAcceptsCleanStream(t *testing.T) {
	p, _ := compileTiny(t)
	path := writeStream(t, p)
	var out, errw bytes.Buffer
	if code := run([]string{"-accel", "small", "-v", path}, &out, &errw); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "re-derived exactly") {
		t.Fatalf("verbose output missing bound confirmation:\n%s", out.String())
	}
}

func TestVetRejectsForgedBound(t *testing.T) {
	p, _ := compileTiny(t)
	p.ResponseBound += 12345
	path := writeStream(t, p)
	var out, errw bytes.Buffer
	if code := run([]string{"-accel", "small", path}, &out, &errw); code != 1 {
		t.Fatalf("exit %d for a forged bound\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "response-bound") {
		t.Fatalf("failure output missing the response-bound class:\n%s", out.String())
	}
}

func TestVetRejectsCorruptTransfer(t *testing.T) {
	p, _ := compileTiny(t)
	for i := range p.Instrs {
		if p.Instrs[i].Op == isa.OpLoadD && p.Instrs[i].Rows > 0 {
			p.Instrs[i].Addr = p.DDRBytes
			break
		}
	}
	path := writeStream(t, p)
	var out, errw bytes.Buffer
	if code := run([]string{"-accel", "small", path}, &out, &errw); code != 1 {
		t.Fatalf("exit %d for an out-of-arena load\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ddr-bounds") {
		t.Fatalf("failure output missing the ddr-bounds class:\n%s", out.String())
	}
}

// TestVetUnmodeledBound: a stream compiled without a cost model carries a
// zero (unmodeled) bound; the bound check is skipped, not failed.
func TestVetUnmodeledBound(t *testing.T) {
	q, err := quant.Synthesize(model.NewTinyCNN(3, 24, 32), 11)
	if err != nil {
		t.Fatal(err)
	}
	opt := accel.Small().CompilerOptions()
	opt.Cost = nil
	p, err := compiler.Compile(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p.ResponseBound != 0 {
		t.Fatalf("compiled without a cost model, bound %d, want 0", p.ResponseBound)
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-accel", "small", "-v", writeStream(t, p)}, &out, &errw); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "bound unmodeled") {
		t.Fatalf("bound-less stream should report an unmodeled bound:\n%s", out.String())
	}
}

// TestVetDslamSet: the built-in model set — the paper's DSLAM task mix
// under both placement policies — compiles and verifies end to end, the
// self-test `make progcheck` runs from the command line.
func TestVetDslamSet(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the full DSLAM model set")
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-accel", "big", "-v", "-models", "dslam"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	for _, stream := range []string{"FE/vi-every", "FE/vi-budget", "MAP/vi-every", "MAP/vi-budget", "LOOP/vi-every", "LOOP/vi-budget"} {
		if !strings.Contains(out.String(), "ok   "+stream) {
			t.Errorf("dslam output missing %q:\n%s", stream, out.String())
		}
	}
	if strings.Count(out.String(), "re-derived exactly") != 6 {
		t.Errorf("want 6 exact bound re-derivations:\n%s", out.String())
	}
}

func TestVetUsageErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(nil, &out, &errw); code != 1 {
		t.Fatalf("no-args exit %d", code)
	}
	if code := run([]string{"-accel", "bogus"}, &out, &errw); code != 1 {
		t.Fatalf("bad accel exit %d", code)
	}
	if code := run([]string{"-models", "bogus"}, &out, &errw); code != 1 {
		t.Fatalf("bad models exit %d", code)
	}
}
