package slam

// LandmarkID exposes a keypoint's ground-truth landmark to the
// match-precision test.
func (p FeaturePoint) LandmarkID() int { return p.landmarkID }
