package sysns

import (
	"testing"
	"time"

	"arv/internal/cfs"
	"arv/internal/cgroups"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// TestWarmSnapshotGuardsNilFirstSnapshot is the regression test for the
// warm-up race surfaced while wiring snapshot-driven consumers: a
// monitor that has tracked zero pods and never cut a snapshot (NewMonitor
// publishes one, but a monitor assembled without that initial cut — or
// a future construction path deferring it — does not) used to no-op in
// WarmSnapshot when nothing was dirty, leaving Snapshot to hand the
// first consumer a nil view. WarmSnapshot must publish whenever no
// snapshot exists yet.
func TestWarmSnapshotGuardsNilFirstSnapshot(t *testing.T) {
	clock := sim.NewClock(time.Millisecond)
	sched := cfs.NewScheduler(4)
	mem := memctl.New(memctl.Config{Total: units.GiB})
	hier := cgroups.NewHierarchy(sched, mem)
	m := &Monitor{
		hier:  hier,
		clock: clock,
		Trace: new(telemetry.Tracer),
	}
	if m.snap.Load() != nil {
		t.Fatal("precondition: no snapshot published yet")
	}
	if m.snapDirty {
		t.Fatal("precondition: nothing dirty (the old guard would have published anyway)")
	}
	m.WarmSnapshot()
	snap := m.Snapshot()
	if snap == nil {
		t.Fatal("Snapshot returned nil after WarmSnapshot")
	}
	if snap.Version != 1 {
		t.Fatalf("first snapshot version = %d, want 1", snap.Version)
	}
	// Warming again with nothing dirty must not cut a duplicate.
	m.WarmSnapshot()
	if got := m.Snapshot().Version; got != 1 {
		t.Fatalf("idle re-warm republished: version = %d, want 1", got)
	}
}

// TestNewMonitorNeverNilSnapshot pins the constructor half of the
// contract: NewMonitor publishes an initial snapshot before any
// container exists.
func TestNewMonitorNeverNilSnapshot(t *testing.T) {
	f := newFixture(4, units.GiB)
	if f.mon.Snapshot() == nil {
		t.Fatal("NewMonitor must publish an initial snapshot")
	}
}
