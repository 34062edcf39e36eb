// Package slam implements the CNN-based DSLAM pipeline of the paper's
// evaluation: SuperPoint-style feature-point extraction (FE) feeding a
// visual odometry (VO), GeM-style place recognition (PR) producing global
// descriptors, and map merging across two agents when PR finds a match.
//
// The CNN backbones run (as shape-faithful programs) on the simulated
// accelerator; this package is the CPU-side post-processing the paper runs
// on the PS side — keypoint selection, descriptor handling, matching, pose
// estimation, retrieval, and merging. Because the deployed backbones carry
// synthetic weights, the semantic content of detections is derived from the
// camera's geometric observations (projected landmarks with noise), the
// standard behavioural substitution for a trained network in simulation:
// matching can succeed and fail, descriptors are noisy, and recognition has
// genuine false candidates.
package slam

import (
	"math"
	"sort"
	"time"

	"inca/internal/world"
)

// DescDim is the feature descriptor dimensionality (SuperPoint uses 256;
// a compact 16-d stand-in keeps matching honest and fast).
const DescDim = 16

// FeaturePoint is one extracted keypoint with descriptor.
type FeaturePoint struct {
	U, V     float64
	Depth    float64
	Response float64
	Desc     [DescDim]float32

	// landmarkID is ground truth: it breaks response ties deterministically
	// and the match-precision test reads it; the pipeline matches by
	// descriptor.
	landmarkID int
}

// Frame is the FE output for one camera frame.
type Frame struct {
	AgentID int
	Stamp   time.Duration
	Points  []FeaturePoint
}

// Extractor is the FE post-processing stage (the paper accelerates this
// step's heatmap NMS in PL fabric; here it is a CPU stage).
type Extractor struct {
	// MaxPoints caps the keypoints kept per frame after NMS.
	MaxPoints int
	// NMSRadius suppresses weaker detections within this pixel radius.
	NMSRadius float64
	// DescNoise perturbs descriptors (viewpoint/illumination effects).
	DescNoise float64
	// DetectionProb drops detections at random (missed keypoints).
	DetectionProb float64
}

// DefaultExtractor mirrors SuperPoint-like operating points.
func DefaultExtractor() Extractor {
	return Extractor{MaxPoints: 150, NMSRadius: 3, DescNoise: 0.08, DetectionProb: 0.95}
}

// descriptorOf expands a landmark signature into a unit descriptor with
// deterministic noise: 4 signature bits per dimension, then perturbation.
func descriptorOf(sig uint64, noise float64, r *prng) [DescDim]float32 {
	var d [DescDim]float32
	var norm float64
	for i := 0; i < DescDim; i++ {
		bits := (sig >> uint(i*4)) & 0xF
		v := float64(bits)/7.5 - 1.0
		v += (r.float() - 0.5) * 2 * noise
		d[i] = float32(v)
		norm += v * v
	}
	if norm > 0 {
		inv := float32(1 / math.Sqrt(norm))
		for i := range d {
			d[i] *= inv
		}
	}
	return d
}

// Extract converts a camera observation into a feature frame: response
// scoring, radius NMS, descriptor computation.
func (e Extractor) Extract(obs world.Observation, seed uint64) Frame {
	r := &prng{s: seed ^ uint64(obs.Stamp) ^ uint64(obs.AgentID)<<32}
	cands := make([]FeaturePoint, 0, len(obs.Points))
	for _, p := range obs.Points {
		if r.float() > e.DetectionProb {
			continue // missed detection
		}
		cands = append(cands, FeaturePoint{
			U: p.U, V: p.V, Depth: p.Depth,
			Response:   1.0 / (1.0 + p.Depth/4.0),
			Desc:       descriptorOf(p.Sig, e.DescNoise, r),
			landmarkID: p.LandmarkID,
		})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Response != cands[j].Response {
			return cands[i].Response > cands[j].Response
		}
		return cands[i].landmarkID < cands[j].landmarkID
	})
	var kept []FeaturePoint
	for _, c := range cands {
		ok := true
		for _, k := range kept {
			du, dv := c.U-k.U, c.V-k.V
			if du*du+dv*dv < e.NMSRadius*e.NMSRadius {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, c)
			if len(kept) >= e.MaxPoints {
				break
			}
		}
	}
	return Frame{AgentID: obs.AgentID, Stamp: obs.Stamp, Points: kept}
}

// DescDistance is the squared Euclidean distance between unit descriptors.
func DescDistance(a, b [DescDim]float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i] - b[i])
		s += d * d
	}
	return s
}

// MatchFrames returns index pairs (i in a, j in b) of mutual nearest
// neighbours passing Lowe's ratio test.
func MatchFrames(a, b []FeaturePoint, ratio float64) [][2]int {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	bestFor := func(p FeaturePoint, set []FeaturePoint) (int, float64, float64) {
		bi, b1, b2 := -1, math.Inf(1), math.Inf(1)
		for j := range set {
			d := DescDistance(p.Desc, set[j].Desc)
			if d < b1 {
				bi, b2, b1 = j, b1, d
			} else if d < b2 {
				b2 = d
			}
		}
		return bi, b1, b2
	}
	var out [][2]int
	for i := range a {
		j, d1, d2 := bestFor(a[i], b)
		if j < 0 || d1 > ratio*ratio*d2 {
			continue
		}
		// Mutual check.
		ii, _, _ := bestFor(b[j], a)
		if ii == i {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// prng is a deterministic splitmix64 generator.
type prng struct{ s uint64 }

func (r *prng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *prng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
