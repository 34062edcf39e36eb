package slam_test

import (
	"reflect"
	"testing"
	"time"

	"inca/internal/accel"
	"inca/internal/compiler"
	"inca/internal/iau"
	"inca/internal/model"
	"inca/internal/quant"
	"inca/internal/world"
)

// TestCameraFrameThroughAccelerator closes the loop between the world and
// the accelerator: a rendered camera frame is fed through a compiled
// grayscale CNN on the functional engine, bit-exact against the software
// reference and deterministic across renders.
func TestCameraFrameThroughAccelerator(t *testing.T) {
	w := world.NewArena(12)
	cam := world.DefaultCamera(64, 48)
	pose := world.Pose{X: 12, Y: 8, Theta: 0.7}
	obs := cam.Observe(w, 0, pose, time.Second, 3)
	img := cam.Render(obs)

	g := model.New("frame-net", 1, 48, 64)
	a := g.Conv("c1", 0, 8, 3, 1, 1, true)
	b := g.MaxPool("p1", a, 2, 2)
	g.Conv("c2", b, 8, 3, 1, 1, false)
	q, err := quant.Synthesize(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.Big()
	cfg.ParaIn, cfg.ParaOut, cfg.ParaHeight = 4, 4, 3
	opt := cfg.CompilerOptions()
	opt.VI = compiler.VIEvery{}
	opt.EmitWeights = true
	p, err := compiler.Compile(q, opt)
	if err != nil {
		t.Fatal(err)
	}

	run := func() []int8 {
		arena, err := accel.NewArena(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := accel.WriteInputAt(arena, p, img, 0); err != nil {
			t.Fatal(err)
		}
		u := iau.New(cfg, iau.PolicyVI)
		if err := u.Submit(1, &iau.Request{Label: "frame", Prog: p, Arena: arena}); err != nil {
			t.Fatal(err)
		}
		if err := u.RunAll(); err != nil {
			t.Fatal(err)
		}
		out, err := accel.ReadOutputAt(arena, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		return out.Data
	}

	got := run()
	want, err := q.RunFinal(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want.Data[i] {
			t.Fatalf("camera frame inference differs from reference at %d", i)
		}
	}
	// Deterministic re-render, deterministic inference.
	img2 := cam.Render(cam.Observe(w, 0, pose, time.Second, 3))
	if !reflect.DeepEqual(img, img2) {
		t.Fatal("render not deterministic")
	}
	got2 := run()
	for i := range got {
		if got[i] != got2[i] {
			t.Fatal("inference not deterministic")
		}
	}
}
