package core_test

import (
	"bytes"
	"testing"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/isa"
	"inca/internal/model"
	"inca/internal/progcheck"
	"inca/internal/quant"
)

// BenchmarkDeployPhases splits one cold deploy of ResNet-18 60x80 (VIEvery,
// weights embedded, compiler self-check off so the phases separate) into the
// phases the deploy_cold workload times: synthesize, compile, verify, encode,
// decode, allocate the arena. MB/s is against the encoded image size, so the
// phases compare on bytes of deploy artefact moved. `make bench-deploy`.
func BenchmarkDeployPhases(b *testing.B) {
	cfg := accel.Big()
	g, err := model.NewResNet(18, 3, 60, 80)
	if err != nil {
		b.Fatal(err)
	}
	q, err := quant.Synthesize(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	opt.EmitWeights = true
	opt.Check = false
	p, err := compiler.Compile(q, opt)
	if err != nil {
		b.Fatal(err)
	}
	var enc bytes.Buffer
	if err := isa.Encode(&enc, p); err != nil {
		b.Fatal(err)
	}
	phases := []struct {
		name string
		run  func() error
	}{
		{"synth", func() error { _, err := quant.Synthesize(g, 1); return err }},
		{"compile", func() error { _, err := compiler.Compile(q, opt); return err }},
		{"verify", func() error { return progcheck.Verify(p, progcheck.Options{Cost: cfg}).Err() }},
		{"encode", func() error { var buf bytes.Buffer; return isa.Encode(&buf, p) }},
		{"decode", func() error { _, err := isa.Decode(bytes.NewReader(enc.Bytes())); return err }},
		{"arena", func() error { _, err := accel.NewArena(p); return err }},
	}
	for _, ph := range phases {
		b.Run(ph.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(enc.Len()))
			for i := 0; i < b.N; i++ {
				if err := ph.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
