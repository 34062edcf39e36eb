package world

import (
	"math"
	"time"
)

// Trajectory is a waypoint path an agent follows at constant linear speed,
// rotating in place at the corners (so the heading never jumps between
// frames — a camera-tracking robot cannot turn instantaneously).
type Trajectory struct {
	Waypoints []Pose
	Speed     float64 // m/s along segments
	TurnRate  float64 // rad/s at corners
	// Loop closes the path back to the first waypoint.
	Loop bool

	phases []phase
	total  time.Duration
}

// phase is one motion primitive: rotate in place, then (or) translate.
type phase struct {
	dur      time.Duration
	start    Pose // pose at phase start
	turn     bool
	endTheta float64 // rotation target (turn phases)
	end      Pose    // pose at phase end (translate phases)
}

// NewTrajectory builds a trajectory through the waypoints at the given
// speed (m/s): translate along each segment, rotate in place between them.
func NewTrajectory(points [][2]float64, speed float64, loop bool) *Trajectory {
	t := &Trajectory{Speed: speed, TurnRate: 1.0, Loop: loop}
	for _, p := range points {
		t.Waypoints = append(t.Waypoints, Pose{X: p[0], Y: p[1]})
	}
	n := len(t.Waypoints)
	segs := n - 1
	if loop {
		segs = n
	}
	heading := func(i int) float64 {
		a := t.Waypoints[i%n]
		b := t.Waypoints[(i+1)%n]
		return math.Atan2(b.Y-a.Y, b.X-a.X)
	}
	theta := heading(0)
	for i := 0; i < segs; i++ {
		a := t.Waypoints[i%n]
		b := t.Waypoints[(i+1)%n]
		want := heading(i)
		if d := normAngle(want - theta); d != 0 {
			dur := time.Duration(math.Abs(d) / t.TurnRate * float64(time.Second))
			t.phases = append(t.phases, phase{
				dur: dur, start: Pose{X: a.X, Y: a.Y, Theta: theta},
				turn: true, endTheta: want,
			})
			t.total += dur
			theta = want
		}
		l := math.Hypot(b.X-a.X, b.Y-a.Y)
		dur := time.Duration(l / t.Speed * float64(time.Second))
		t.phases = append(t.phases, phase{
			dur:   dur,
			start: Pose{X: a.X, Y: a.Y, Theta: theta},
			end:   Pose{X: b.X, Y: b.Y, Theta: theta},
		})
		t.total += dur
	}
	if loop {
		// Final rotation back to the first segment's heading.
		want := heading(0)
		if d := normAngle(want - theta); d != 0 {
			a := t.Waypoints[0]
			dur := time.Duration(math.Abs(d) / t.TurnRate * float64(time.Second))
			t.phases = append(t.phases, phase{
				dur: dur, start: Pose{X: a.X, Y: a.Y, Theta: theta},
				turn: true, endTheta: want,
			})
			t.total += dur
		}
	}
	return t
}

// PoseAt returns the agent pose after travelling for d of simulated time.
func (t *Trajectory) PoseAt(d time.Duration) Pose {
	if len(t.phases) == 0 {
		return t.Waypoints[0]
	}
	if t.Loop {
		d = d % t.total
	} else if d >= t.total {
		p := t.phases[len(t.phases)-1]
		if p.turn {
			return Pose{X: p.start.X, Y: p.start.Y, Theta: p.endTheta}
		}
		return p.end
	}
	for _, p := range t.phases {
		if d > p.dur {
			d -= p.dur
			continue
		}
		f := 0.0
		if p.dur > 0 {
			f = float64(d) / float64(p.dur)
		}
		if p.turn {
			return Pose{
				X: p.start.X, Y: p.start.Y,
				Theta: normAngle(p.start.Theta + f*normAngle(p.endTheta-p.start.Theta)),
			}
		}
		return Pose{
			X:     p.start.X + f*(p.end.X-p.start.X),
			Y:     p.start.Y + f*(p.end.Y-p.start.Y),
			Theta: p.start.Theta,
		}
	}
	last := t.phases[len(t.phases)-1]
	if last.turn {
		return Pose{X: last.start.X, Y: last.start.Y, Theta: last.endTheta}
	}
	return last.end
}

// Agent is one robot moving through the world.
type Agent struct {
	ID   int
	Traj *Trajectory
}

// PoseAt returns the agent's true pose at simulated time d.
func (a *Agent) PoseAt(d time.Duration) Pose { return a.Traj.PoseAt(d) }

// TwoAgentPatrol returns the paper-style scenario: two agents patrolling
// overlapping loops of the arena in opposite directions, so they repeatedly
// visit the same places at different times.
func TwoAgentPatrol(w *World) (*Agent, *Agent) {
	m := 2.5
	left := [][2]float64{
		{m, m}, {w.Width / 2, m}, {w.Width / 2, w.Height - m}, {m, w.Height - m},
	}
	right := [][2]float64{
		{w.Width - m, w.Height - m}, {w.Width / 2, w.Height - m}, {w.Width / 2, m}, {w.Width - m, m},
	}
	return &Agent{ID: 0, Traj: NewTrajectory(left, 0.8, true)},
		&Agent{ID: 1, Traj: NewTrajectory(right, 0.8, true)}
}
