package slam

import (
	"math"
	"time"

	"inca/internal/world"
)

// PlaceDim is the global place-descriptor dimensionality (GeM's ResNet-101
// head yields 2048; a compact stand-in keeps retrieval honest and fast).
const PlaceDim = 64

// PlaceDescriptor is a GeM-style global image descriptor.
type PlaceDescriptor [PlaceDim]float32

// Cosine returns the cosine similarity of two descriptors.
func (a PlaceDescriptor) Cosine(b PlaceDescriptor) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Recognizer builds global descriptors by generalized-mean pooling of
// per-landmark embeddings (the behavioural stand-in for GeM pooling over
// ResNet-101 feature maps) and retrieves matches from a descriptor database.
type Recognizer struct {
	// P is the GeM pooling exponent (GeM's learned p ≈ 3).
	P float64
	// Threshold is the minimum cosine similarity accepted as a match.
	Threshold float64
	// MinSeparation rejects matches whose query and hit are temporally close
	// frames of the same agent (trivial self-matches).
	MinSeparation time.Duration
}

// DefaultRecognizer mirrors GeM-like retrieval operating points.
func DefaultRecognizer() Recognizer {
	return Recognizer{P: 3, Threshold: 0.80, MinSeparation: 5 * time.Second}
}

// embed hashes a landmark signature into a dense zero-mean embedding.
// Zero mean matters: pooling all-positive embeddings over dozens of
// landmarks collapses every place toward the population mean, destroying
// discrimination (the simulation analogue of unwhitened CNN features).
func embed(sig uint64) [PlaceDim]float32 {
	var e [PlaceDim]float32
	s := sig
	for i := 0; i < PlaceDim; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		e[i] = float32(s&0xFFFF)/32767.5 - 1.0
	}
	return e
}

// Describe pools the observation's landmark embeddings into a place
// descriptor with a sign-preserving generalized mean (GeM over signed
// features), weighting nearby structure more strongly.
func (r Recognizer) Describe(obs world.Observation) PlaceDescriptor {
	var acc [PlaceDim]float64
	var wsum float64
	for _, p := range obs.Points {
		e := embed(p.Sig)
		w := 1.0 / (1.0 + p.Depth/4.0)
		wsum += w
		for i := 0; i < PlaceDim; i++ {
			v := float64(e[i])
			acc[i] += w * math.Copysign(math.Pow(math.Abs(v), r.P), v)
		}
	}
	var d PlaceDescriptor
	if wsum == 0 {
		return d
	}
	var norm float64
	for i := 0; i < PlaceDim; i++ {
		m := acc[i] / wsum
		v := math.Copysign(math.Pow(math.Abs(m), 1/r.P), m)
		d[i] = float32(v)
		norm += v * v
	}
	if norm == 0 {
		return d
	}
	inv := float32(1 / math.Sqrt(norm))
	for i := range d {
		d[i] *= inv
	}
	return d
}

// PlaceEntry is one database record.
type PlaceEntry struct {
	AgentID int
	Seq     int
	Stamp   time.Duration
	Odom    world.Pose // odometry pose when the place was described
	Desc    PlaceDescriptor

	// TruePose is ground truth retained for evaluation only.
	TruePose world.Pose
}

// Match is a retrieval result.
type Match struct {
	Query, Hit PlaceEntry
	Similarity float64
}

// Database stores place descriptors from all agents.
type Database struct {
	entries []PlaceEntry
}

// Add inserts an entry.
func (db *Database) Add(e PlaceEntry) { db.entries = append(db.entries, e) }

// Len returns the number of stored places.
func (db *Database) Len() int { return len(db.entries) }

// Query retrieves the best match for the descriptor under the recognizer's
// acceptance rules. crossAgentOnly restricts hits to other agents (the DSLAM
// map-merge use case).
func (db *Database) Query(r Recognizer, q PlaceEntry, crossAgentOnly bool) (Match, bool) {
	best := Match{Similarity: -1}
	for _, e := range db.entries {
		if crossAgentOnly && e.AgentID == q.AgentID {
			continue
		}
		if !crossAgentOnly && e.AgentID == q.AgentID {
			dt := q.Stamp - e.Stamp
			if dt < 0 {
				dt = -dt
			}
			if dt < r.MinSeparation {
				continue
			}
		}
		if s := q.Desc.Cosine(e.Desc); s > best.Similarity {
			best = Match{Query: q, Hit: e, Similarity: s}
		}
	}
	if best.Similarity < r.Threshold {
		return Match{}, false
	}
	return best, true
}
