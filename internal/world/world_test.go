package world_test

import (
	"math"
	"os"
	"testing"
	"testing/quick"
	"time"

	"inca/internal/world"
)

func TestArenaDeterministic(t *testing.T) {
	a := world.NewArena(7)
	b := world.NewArena(7)
	if len(a.Landmarks) != len(b.Landmarks) {
		t.Fatal("arena generation nondeterministic")
	}
	for i := range a.Landmarks {
		if a.Landmarks[i] != b.Landmarks[i] {
			t.Fatalf("landmark %d differs", i)
		}
	}
	c := world.NewArena(8)
	same := true
	for i := range a.Landmarks {
		if i < len(c.Landmarks) && a.Landmarks[i].Sig != c.Landmarks[i].Sig {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical signatures")
	}
	if len(a.Landmarks) < 100 {
		t.Fatalf("arena too sparse: %d landmarks", len(a.Landmarks))
	}
}

func TestPoseAlgebra(t *testing.T) {
	// Compose with inverse is identity.
	p := world.Pose{X: 3, Y: -2, Theta: 0.8}
	id := p.Compose(p.Inverse())
	if math.Abs(id.X) > 1e-12 || math.Abs(id.Y) > 1e-12 || math.Abs(id.Theta) > 1e-12 {
		t.Fatalf("p∘p⁻¹ = %+v", id)
	}
	// Add applies a body-frame motion: it is Compose with that motion.
	m := world.Pose{X: 5, Y: 1, Theta: -1.2}
	got, want := p.Add(m.X, m.Y, m.Theta), p.Compose(m)
	if world.Dist(got, want) > 1e-12 || math.Abs(got.Theta-want.Theta) > 1e-12 {
		t.Fatalf("Add = %+v, Compose = %+v", got, want)
	}
}

// Property: SE(2) composition is associative.
func TestPoseProperties(t *testing.T) {
	norm := func(v float64) float64 { return math.Mod(v, 5) }
	f := func(ax, ay, at, bx, by, bt, cx, cy, ct float64) bool {
		a := world.Pose{X: norm(ax), Y: norm(ay), Theta: norm(at)}
		b := world.Pose{X: norm(bx), Y: norm(by), Theta: norm(bt)}
		c := world.Pose{X: norm(cx), Y: norm(cy), Theta: norm(ct)}
		for _, v := range []float64{a.X, a.Y, a.Theta, b.X, b.Y, b.Theta, c.X, c.Y, c.Theta} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		l := a.Compose(b).Compose(c)
		r := a.Compose(b.Compose(c))
		if world.Dist(l, r) > 1e-9 {
			return false
		}
		d := math.Abs(l.Theta - r.Theta)
		if d > math.Pi {
			d = 2*math.Pi - d
		}
		return d <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTrajectorySmoothness(t *testing.T) {
	traj := world.NewTrajectory([][2]float64{{0, 0}, {4, 0}, {4, 4}, {0, 4}}, 0.8, true)
	if traj.Period() <= 0 {
		t.Fatal("empty period")
	}
	// Per-frame (50 ms) deltas must stay within speed and turn-rate bounds.
	dt := 50 * time.Millisecond
	prev := traj.PoseAt(0)
	for i := 1; i < 2000; i++ {
		cur := traj.PoseAt(time.Duration(i) * dt)
		if d := world.Dist(prev, cur); d > 0.8*dt.Seconds()+1e-9 {
			t.Fatalf("step %d: jumped %.3f m in one frame", i, d)
		}
		dth := math.Abs(cur.Theta - prev.Theta)
		if dth > math.Pi {
			dth = 2*math.Pi - dth
		}
		if dth > 1.0*dt.Seconds()+1e-9 {
			t.Fatalf("step %d: rotated %.3f rad in one frame", i, dth)
		}
		prev = cur
	}
}

func TestTrajectoryLoopsAndClamps(t *testing.T) {
	open := world.NewTrajectory([][2]float64{{0, 0}, {2, 0}}, 1.0, false)
	end := open.PoseAt(10 * time.Second)
	if math.Abs(end.X-2) > 1e-9 || math.Abs(end.Y) > 1e-9 {
		t.Fatalf("open trajectory end %+v", end)
	}
	loop := world.NewTrajectory([][2]float64{{0, 0}, {2, 0}, {2, 2}, {0, 2}}, 1.0, true)
	a := loop.PoseAt(0)
	b := loop.PoseAt(loop.Period())
	if world.Dist(a, b) > 1e-6 {
		t.Fatalf("loop does not close: %+v vs %+v", a, b)
	}
}

func TestCameraGeometry(t *testing.T) {
	w := world.NewArena(3)
	cam := world.DefaultCamera(160, 120)
	pose := world.Pose{X: 12, Y: 8, Theta: 0}
	obs := cam.Observe(w, 0, pose, time.Second, 5)
	if len(obs.Points) == 0 {
		t.Fatal("no landmarks visible from arena center")
	}
	for _, p := range obs.Points {
		if p.U < 0 || p.U >= 160 || p.V < 0 || p.V >= 120 {
			t.Fatalf("projection outside image: (%f,%f)", p.U, p.V)
		}
		if p.Depth <= 0 || p.Depth > cam.MaxRange {
			t.Fatalf("depth %f outside (0,%f]", p.Depth, cam.MaxRange)
		}
	}
	// Looking the other way must see different landmarks.
	back := cam.Observe(w, 0, world.Pose{X: 12, Y: 8, Theta: math.Pi}, time.Second, 5)
	seen := map[int]bool{}
	for _, p := range obs.Points {
		seen[p.LandmarkID] = true
	}
	overlap := 0
	for _, p := range back.Points {
		if seen[p.LandmarkID] {
			overlap++
		}
	}
	if overlap > len(back.Points)/4 {
		t.Fatalf("opposite views share %d/%d landmarks", overlap, len(back.Points))
	}
}

func TestOcclusion(t *testing.T) {
	w := &world.World{Width: 20, Height: 20}
	w.Obstacles = append(w.Obstacles, world.Obstacle{X: 10, Y: 10, R: 1})
	behind := world.Landmark{ID: 1, X: 15, Y: 10, Z: 1}
	beside := world.Landmark{ID: 2, X: 10, Y: 13, Z: 1}
	onSurface := world.Landmark{ID: 3, X: 9, Y: 10, Z: 1} // near face of the pillar
	farSide := world.Landmark{ID: 4, X: 11, Y: 10, Z: 1}  // far face
	if !w.Occluded(5, 10, &behind) {
		t.Error("landmark directly behind the pillar visible")
	}
	if w.Occluded(5, 10, &beside) {
		t.Error("landmark beside the pillar occluded")
	}
	if w.Occluded(5, 10, &onSurface) {
		t.Error("near-face surface landmark occluded by its own pillar")
	}
	if !w.Occluded(5, 10, &farSide) {
		t.Error("far-face surface landmark visible through the pillar")
	}
}

func TestArenaOcclusionInObserve(t *testing.T) {
	w := world.NewArena(3)
	cam := world.DefaultCamera(160, 120)
	// Stand west of pillar (5,4) looking east: the wall landmarks straight
	// behind the pillar must not appear.
	pose := world.Pose{X: 2, Y: 4, Theta: 0}
	obs := cam.Observe(w, 0, pose, time.Second, 5)
	for _, p := range obs.Points {
		lm := w.Landmarks[p.LandmarkID]
		if w.Occluded(pose.X, pose.Y, &lm) {
			t.Fatalf("observation contains occluded landmark %d", p.LandmarkID)
		}
	}
	if len(obs.Points) == 0 {
		t.Fatal("occlusion removed everything")
	}
}

func TestRenderShape(t *testing.T) {
	w := world.NewArena(4)
	cam := world.DefaultCamera(64, 48)
	obs := cam.Observe(w, 0, world.Pose{X: 12, Y: 8, Theta: 1}, 0, 1)
	img := cam.Render(obs)
	if img.Shape[0] != 1 || img.Shape[1] != 48 || img.Shape[2] != 64 {
		t.Fatalf("image shape %v", img.Shape)
	}
	// The image must not be constant (landmark patches present).
	min8, max8 := img.Data[0], img.Data[0]
	for _, v := range img.Data {
		if v < min8 {
			min8 = v
		}
		if v > max8 {
			max8 = v
		}
	}
	if min8 == max8 {
		t.Fatal("rendered image is constant")
	}
}

func TestWritePNG(t *testing.T) {
	w := world.NewArena(4)
	cam := world.DefaultCamera(64, 48)
	obs := cam.Observe(w, 0, world.Pose{X: 12, Y: 8, Theta: 1}, 0, 1)
	img := cam.Render(obs)
	path := t.TempDir() + "/frames/f0.png"
	if err := world.WritePNG(img, path); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() < 100 {
		t.Fatalf("suspiciously small PNG (%d bytes)", st.Size())
	}
	// Wrong shape rejected.
	bad := cam.Render(obs)
	bad.Shape = []int{3, 16, 16}
	if err := world.WritePNG(bad, t.TempDir()+"/x.png"); err == nil {
		t.Fatal("multi-channel tensor accepted")
	}
}

func TestTwoAgentPatrolOverlap(t *testing.T) {
	w := world.NewArena(5)
	a0, a1 := world.TwoAgentPatrol(w)
	// The loops share the arena's vertical midline, so at some pair of
	// times the agents stand close to the same spot.
	best := math.Inf(1)
	for ta := time.Duration(0); ta < 60*time.Second; ta += time.Second {
		pa := a0.PoseAt(ta)
		for tb := time.Duration(0); tb < 60*time.Second; tb += time.Second {
			if d := world.Dist(pa, a1.PoseAt(tb)); d < best {
				best = d
			}
		}
	}
	if best > 1.0 {
		t.Fatalf("patrol routes never come within 1 m (best %.2f)", best)
	}
}
