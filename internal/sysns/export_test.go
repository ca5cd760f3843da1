package sysns

import (
	"arv/internal/cgroups"
	"arv/internal/sim"
)

// BoundsDeferred reports whether the monitor holds bounds-recompute marks
// for its next flush boundary.
func (m *Monitor) BoundsDeferred() bool { return m.boundsDirtyAll || len(m.dirtyTops) > 0 }

// UseFullRecompute pins a freshly built monitor to the full-recompute
// reference: every delivered trigger re-reads every input from live
// hierarchy state and recalculates every namespace's bounds at once.
// The mirror tests, FuzzMonitorMirror, and the host-level fault
// differentials hold the mark-and-flush path against it. It lives in a test file so that no production
// configuration can reach it. It panics once the monitor has attached a
// namespace.
func UseFullRecompute(m *Monitor) {
	if len(m.nsCPU) > 0 {
		panic("sysns: UseFullRecompute on a monitor already in use")
	}
	m.fullRecompute = true
}

// newFullRecomputeMonitor returns a monitor running the full-recompute
// reference.
func newFullRecomputeMonitor(hier *cgroups.Hierarchy, clock *sim.Clock) *Monitor {
	m := NewMonitor(hier, clock, Options{})
	UseFullRecompute(m)
	return m
}
