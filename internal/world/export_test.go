package world

import "time"

// Period returns the time one full traversal takes.
func (t *Trajectory) Period() time.Duration { return t.total }
