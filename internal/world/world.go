// Package world is the AirSim substitute: a procedural environment with two
// agents on trajectories and a camera model producing deterministic
// observations and synthetic images.
//
// The paper's evaluation arena is "a simple rectangle area with four
// different pillars, and some chairs at the center". NewArena reproduces
// that: walls, four visually distinct pillars, and a central furniture
// cluster, all as landmark points carrying stable appearance signatures.
// What the experiments need from the environment is (a) camera frames
// arriving at 20 fps to load the accelerator and (b) revisitable places with
// recognisable appearance so PR can close loops between agents — both of
// which the synthetic arena provides reproducibly.
package world

import (
	"math"
)

// Landmark is a visually salient 3D point with a stable appearance
// signature (the stand-in for what a trained descriptor network would
// compute from its surroundings).
type Landmark struct {
	ID  int
	X   float64 // meters
	Y   float64
	Z   float64 // height above floor
	Sig uint64  // appearance signature
}

// Obstacle is a vertical cylinder that blocks line of sight.
type Obstacle struct {
	X, Y, R float64
}

// World holds the static environment.
type World struct {
	Width, Height float64 // arena extent in meters
	Landmarks     []Landmark
	Obstacles     []Obstacle
}

// Occluded reports whether the sight line from (ox, oy) to landmark lm is
// blocked by an obstacle. Landmarks mounted on an obstacle's own surface are
// only blocked by *other* obstacles (and by the far side of their own, which
// the surface tolerance handles).
func (w *World) Occluded(ox, oy float64, lm *Landmark) bool {
	for i := range w.Obstacles {
		ob := &w.Obstacles[i]
		// Landmarks on this obstacle's surface: visible unless the segment
		// passes deep through the cylinder (far-side points).
		onSurface := math.Hypot(lm.X-ob.X, lm.Y-ob.Y) <= ob.R+0.05
		r := ob.R
		if onSurface {
			r *= 0.6 // the chord must cut well inside to count as "behind"
		}
		if segmentHitsCircle(ox, oy, lm.X, lm.Y, ob.X, ob.Y, r) {
			return true
		}
	}
	return false
}

// segmentHitsCircle reports whether the open segment (x1,y1)-(x2,y2) passes
// within r of (cx, cy), excluding the endpoints themselves.
func segmentHitsCircle(x1, y1, x2, y2, cx, cy, r float64) bool {
	dx, dy := x2-x1, y2-y1
	l2 := dx*dx + dy*dy
	if l2 == 0 {
		return false
	}
	// Closest approach parameter, restricted to the segment interior so
	// endpoint proximity (the landmark itself, or a camera standing next to
	// a pillar) does not count as occlusion.
	t := ((cx-x1)*dx + (cy-y1)*dy) / l2
	if t <= 0.02 || t >= 0.98 {
		return false
	}
	px, py := x1+t*dx, y1+t*dy
	return math.Hypot(px-cx, py-cy) < r
}

// rng is a small deterministic generator (splitmix64) so world generation
// never depends on global state.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float in [0,1)
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// NewArena builds the paper's evaluation space: a Width x Height rectangle
// with landmark-studded walls, four distinct pillars near the corners, and
// a cluster of chairs at the center.
func NewArena(seed uint64) *World {
	w := &World{Width: 24, Height: 16}
	r := &rng{s: seed ^ 0xa5a5a5a5}
	id := 0
	add := func(x, y, z float64) {
		w.Landmarks = append(w.Landmarks, Landmark{ID: id, X: x, Y: y, Z: z, Sig: r.next()})
		id++
	}
	// Walls: textured with two landmark strips (floor trim and upper edge).
	for x := 0.4; x < w.Width; x += 0.6 {
		add(x, 0.1, 0.4+r.float()*0.8)
		add(x, 0.1, 1.6+r.float()*0.8)
		add(x, w.Height-0.1, 0.4+r.float()*0.8)
		add(x, w.Height-0.1, 1.6+r.float()*0.8)
	}
	for y := 0.4; y < w.Height; y += 0.6 {
		add(0.1, y, 0.4+r.float()*0.8)
		add(0.1, y, 1.6+r.float()*0.8)
		add(w.Width-0.1, y, 0.4+r.float()*0.8)
		add(w.Width-0.1, y, 1.6+r.float()*0.8)
	}
	// Four pillars, each a dense ring of landmarks (visually distinct via
	// their signatures). The pillar bodies occlude what lies behind them.
	pillars := [][2]float64{{5, 4}, {19, 4}, {5, 12}, {19, 12}}
	for _, p := range pillars {
		w.Obstacles = append(w.Obstacles, Obstacle{X: p[0], Y: p[1], R: 0.4})
		for k := 0; k < 20; k++ {
			a := 2 * math.Pi * float64(k) / 20
			add(p[0]+0.4*math.Cos(a), p[1]+0.4*math.Sin(a), 0.3+2.2*r.float())
		}
	}
	// Chairs at the center (the white box in Fig. 5 of the paper).
	for k := 0; k < 36; k++ {
		add(10.5+3*r.float(), 6.5+3*r.float(), 0.2+0.9*r.float())
	}
	return w
}

// Pose is an agent's planar pose.
type Pose struct {
	X, Y  float64
	Theta float64 // heading, radians
}

// Add composes a relative motion (dx, dy in the pose frame, dtheta) onto p.
func (p Pose) Add(dx, dy, dtheta float64) Pose {
	c, s := math.Cos(p.Theta), math.Sin(p.Theta)
	return Pose{
		X:     p.X + c*dx - s*dy,
		Y:     p.Y + s*dx + c*dy,
		Theta: normAngle(p.Theta + dtheta),
	}
}

// Compose treats poses as SE(2) transforms and returns p∘q (apply q, then p).
func (p Pose) Compose(q Pose) Pose {
	c, s := math.Cos(p.Theta), math.Sin(p.Theta)
	return Pose{
		X:     p.X + c*q.X - s*q.Y,
		Y:     p.Y + s*q.X + c*q.Y,
		Theta: normAngle(p.Theta + q.Theta),
	}
}

// Inverse returns the SE(2) inverse transform.
func (p Pose) Inverse() Pose {
	c, s := math.Cos(p.Theta), math.Sin(p.Theta)
	return Pose{
		X:     -(c*p.X + s*p.Y),
		Y:     -(-s*p.X + c*p.Y),
		Theta: normAngle(-p.Theta),
	}
}

func normAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a < -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// Dist returns the Euclidean distance between two poses' positions.
func Dist(a, b Pose) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}
