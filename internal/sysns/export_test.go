package sysns

import (
	"time"

	"arv/internal/cgroups"
	"arv/internal/sim"
	"arv/internal/units"
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

// UpdateCPU performs one Algorithm 1 adjustment round on ns alone: the
// unit seam the Algorithm 1 tests drive. window is the update period t;
// usage is the container's CPU consumption u_i during the window; slack
// is the system-wide unused CPU capacity accumulated during the window
// (p_slack).
func (ns *SysNamespace) UpdateCPU(now sim.Time, window time.Duration, usage, slack units.CPUSeconds) {
	updateCPU(ns.slotCPU(), ns.slotMeta(), &ns.mon.opts, now, window.Seconds(), usage, slack)
}

// UpdateMem performs one Algorithm 2 adjustment round on ns alone, using
// the host's current free memory and the container's current usage: the
// unit seam the Algorithm 2 tests drive.
func (ns *SysNamespace) UpdateMem(now sim.Time) {
	host := readHostMem(ns.mon.hier.Memory())
	updateMem(ns.slotMem(), ns.cg.Mem, &host, &ns.mon.opts)
}
