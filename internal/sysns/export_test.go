package sysns

// BoundsDeferred reports whether the monitor holds batched bounds-recompute
// marks for its next flush boundary.
func (m *Monitor) BoundsDeferred() bool { return m.boundsDirtyAll || len(m.dirtyTops) > 0 }
