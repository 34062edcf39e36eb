package slam

import (
	"math"

	"inca/internal/world"
)

// CameraIntrinsics converts pixel coordinates back to planar geometry. It
// must mirror the world.Camera that produced the frames.
type CameraIntrinsics struct {
	FOV   float64
	Width int
}

// PointInBody back-projects a feature (U, Depth) to planar coordinates in
// the agent body frame (x forward, y left... here x forward along heading,
// y to the left is positive bearing).
func (c CameraIntrinsics) PointInBody(p FeaturePoint) (x, y float64) {
	bearing := (p.U - float64(c.Width)/2) / (float64(c.Width) / 2) * (c.FOV / 2)
	return p.Depth * math.Cos(bearing), p.Depth * math.Sin(bearing)
}

// RigidEstimate is a planar rigid transform estimate with its support.
type RigidEstimate struct {
	Dx, Dy, Dtheta float64
	Inliers        int
}

// estimateRigid solves the 2D Kabsch problem: the rotation+translation
// mapping src points onto dst points (least squares).
func estimateRigid(src, dst [][2]float64) (RigidEstimate, bool) {
	n := len(src)
	if n < 2 || n != len(dst) {
		return RigidEstimate{}, false
	}
	var sx, sy, dx, dy float64
	for i := 0; i < n; i++ {
		sx += src[i][0]
		sy += src[i][1]
		dx += dst[i][0]
		dy += dst[i][1]
	}
	sx /= float64(n)
	sy /= float64(n)
	dx /= float64(n)
	dy /= float64(n)
	var a, b float64 // cross-covariance terms
	for i := 0; i < n; i++ {
		px, py := src[i][0]-sx, src[i][1]-sy
		qx, qy := dst[i][0]-dx, dst[i][1]-dy
		a += px*qx + py*qy
		b += px*qy - py*qx
	}
	theta := math.Atan2(b, a)
	c, s := math.Cos(theta), math.Sin(theta)
	return RigidEstimate{
		Dx:      dx - (c*sx - s*sy),
		Dy:      dy - (s*sx + c*sy),
		Dtheta:  theta,
		Inliers: n,
	}, true
}

// Odometry is the feature-based visual odometry: it chains relative motion
// estimates between consecutive FE frames.
type Odometry struct {
	Intr CameraIntrinsics
	// Ratio is the matching ratio-test threshold.
	Ratio float64
	// MinMatches below which the frame is rejected (odometry coasts).
	MinMatches int

	pose    world.Pose
	prev    *Frame
	Tracked int // frames successfully tracked
	Lost    int // frames with too few matches
}

// NewOdometry starts an odometry at the origin of its own local frame.
func NewOdometry(intr CameraIntrinsics) *Odometry {
	return &Odometry{Intr: intr, Ratio: 0.9, MinMatches: 5}
}

// Pose returns the current odometry estimate (local frame).
func (o *Odometry) Pose() world.Pose { return o.pose }

// Track ingests a frame and updates the pose estimate. It returns the
// relative motion applied and whether tracking succeeded.
func (o *Odometry) Track(f *Frame) (RigidEstimate, bool) {
	defer func() { o.prev = f }()
	if o.prev == nil {
		return RigidEstimate{}, false
	}
	matches := MatchFrames(o.prev.Points, f.Points, o.Ratio)
	if len(matches) < o.MinMatches {
		o.Lost++
		return RigidEstimate{}, false
	}
	// Static world points: p_prev = T · p_cur, so T is the transform from
	// the current body frame to the previous one — which is exactly the
	// current body's pose expressed in the previous frame (the relative
	// motion to compose onto the odometry).
	src := make([][2]float64, len(matches))
	dst := make([][2]float64, len(matches))
	for k, m := range matches {
		x, y := o.Intr.PointInBody(f.Points[m[1]])
		src[k] = [2]float64{x, y}
		x, y = o.Intr.PointInBody(o.prev.Points[m[0]])
		dst[k] = [2]float64{x, y}
	}
	est, ok := estimateRigid(src, dst)
	if !ok {
		o.Lost++
		return RigidEstimate{}, false
	}
	o.pose = o.pose.Add(est.Dx, est.Dy, est.Dtheta)
	o.Tracked++
	return est, true
}
