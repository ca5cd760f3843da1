package sysns

import (
	"fmt"
	"testing"
	"time"

	"arv/internal/cfs"
	"arv/internal/cgroups"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// batchedPair is a production monitor, whose marks batch up until the
// next read boundary, and a full-recompute reference over one
// hierarchy. The reference rebuilds from live state at every delivered
// trigger; with every event delivered, the two must agree exactly at
// every flush boundary.
type batchedPair struct {
	clock *sim.Clock
	hier  *cgroups.Hierarchy
	mB    *Monitor // marks flushed at read boundaries
	mR    *Monitor // UseFullRecompute: full recompute per trigger
}

func newBatchedPair(cpus int) *batchedPair {
	clock := sim.NewClock(time.Millisecond)
	sched := cfs.NewScheduler(cpus)
	mem := memctl.New(memctl.Config{Total: 64 * units.GiB})
	hier := cgroups.NewHierarchy(sched, mem)
	return &batchedPair{
		clock: clock,
		hier:  hier,
		mB:    NewMonitor(hier, clock, Options{}),
		mR:    newFullRecomputeMonitor(hier, clock),
	}
}

func (p *batchedPair) addContainer(t *testing.T, name string) *cgroups.Cgroup {
	t.Helper()
	cg := p.hier.Create(name)
	p.mB.Attach(cg)
	p.mR.Attach(cg)
	return cg
}

// deferred reports whether the production monitor holds recompute marks
// for its next flush boundary.
func (p *batchedPair) deferred() bool { return p.mB.BoundsDeferred() }

// checkBounds flushes both monitors (the bounds read is a flush
// boundary) and asserts they agree on cg.
func (p *batchedPair) checkBounds(t *testing.T, when string, cg *cgroups.Cgroup) (lower, upper int) {
	t.Helper()
	nsB, nsR := p.mB.nsOf(cg), p.mR.nsOf(cg)
	if nsB == nil || nsR == nil {
		t.Fatalf("%s: %s not attached on both monitors", when, cg.Name)
	}
	bl, bu := nsB.CPUBounds()
	rl, ru := nsR.CPUBounds()
	if bl != rl || bu != ru {
		t.Fatalf("%s: %s bounds diverged: production [%d,%d], reference [%d,%d]", when, cg.Name, bl, bu, rl, ru)
	}
	if e := nsB.EffectiveCPU(); e < bl || e > bu {
		t.Fatalf("%s: %s production E_CPU %d outside [%d,%d]", when, cg.Name, e, bl, bu)
	}
	return bl, bu
}

// TestBatchedEventOnUpdateBoundary pins trigger-atomicity when a limit
// change lands at exactly the same instant as the update round, on
// either side of it: the round's flush must absorb the mark an event
// left before UpdateAll runs, and an event published right after the
// round must be absorbed by the next read — in both cases the flushed
// bounds equal the full-recompute reference.
func TestBatchedEventOnUpdateBoundary(t *testing.T) {
	p := newBatchedPair(8)
	c0 := p.addContainer(t, "c0")
	c1 := p.addContainer(t, "c1")
	p.checkBounds(t, "setup", c0)
	now := p.clock.Now()

	// Event, then the round at the same instant: UpdateAll's flush must
	// see it.
	c1.SetQuotaCPUs(2)
	if !p.deferred() {
		t.Fatal("quota change left no deferred recompute mark")
	}
	p.mB.UpdateAll(now)
	p.mR.UpdateAll(now)
	if p.deferred() {
		t.Fatal("UpdateAll left recompute marks behind")
	}
	if _, upper := p.checkBounds(t, "event-then-round", c1); upper != 2 {
		t.Fatalf("c1 upper bound = %d after 2-CPU quota landed on the round boundary, want 2", upper)
	}

	// Round, then an event at the same instant: the round must NOT have
	// absorbed it (it did not exist yet), the next read boundary must.
	p.mB.UpdateAll(now)
	p.mR.UpdateAll(now)
	c1.SetQuotaCPUs(4)
	if _, upper := p.checkBounds(t, "round-then-event", c1); upper != 4 {
		t.Fatalf("c1 upper bound = %d after 4-CPU quota published post-round, want 4", upper)
	}
	p.checkBounds(t, "round-then-event", c0)
}

// TestBatchedCreateRemoveWithinInterval covers a container whose whole
// lifetime — create, attach, limit changes, remove — fits inside one
// coalesced interval: its events leave only recompute marks until a
// single flush applies creation through removal at once. The removal
// must detach the namespace, roll its share contribution out of the
// cache, and freeze the handle for post-mortem readers, and the flush
// must leave the survivors exactly where the full-recompute reference
// puts them.
func TestBatchedCreateRemoveWithinInterval(t *testing.T) {
	p := newBatchedPair(8)
	c0 := p.addContainer(t, "c0")
	c1 := p.addContainer(t, "c1")
	p.checkBounds(t, "setup", c0)

	tmp := p.addContainer(t, "tmp")
	nsTmp := p.mB.nsOf(tmp)
	tmp.SetShares(4096)
	tmp.SetQuotaCPUs(1)
	p.hier.Remove(tmp)
	if p.mB.nsOf(tmp) != nil {
		t.Fatal("tmp still attached after its Removed event was delivered")
	}
	if !p.deferred() {
		t.Fatal("tmp lifecycle events left no deferred recompute mark")
	}

	// One flush boundary applies the whole lifetime.
	l0, _ := p.checkBounds(t, "after-flush", c0)
	p.checkBounds(t, "after-flush", c1)
	if want := p.mR.totalTop; p.mB.totalTop != want {
		t.Fatalf("production totalTop = %d after create+remove coalesced, reference %d", p.mB.totalTop, want)
	}

	// The frozen handle keeps the last live view even after its slot is
	// recycled by a new container.
	frozenE, frozenMem := nsTmp.EffectiveCPU(), nsTmp.EffectiveMemory()
	c2 := p.addContainer(t, "c2")
	c2.SetShares(64)
	p.checkBounds(t, "slot-recycled", c2)
	if e := nsTmp.EffectiveCPU(); e != frozenE {
		t.Fatalf("detached handle E_CPU moved %d -> %d after slot reuse", frozenE, e)
	}
	if m := nsTmp.EffectiveMemory(); m != frozenMem {
		t.Fatalf("detached handle E_MEM moved %v -> %v after slot reuse", frozenMem, m)
	}

	// Fixed point: a full rebuild from live state must not move anything
	// the coalesced flush produced.
	nsC0 := p.mB.nsOf(c0)
	p.mB.FullRecompute()
	if l, _ := nsC0.CPUBounds(); l != l0 {
		t.Fatalf("c0 lower bound %d after flush, %d after full rebuild", l0, l)
	}
}

// TestBatchedSuppressionRecovery drives the suppressed-event recovery
// path: an interceptor-dropped limit change moves live state without a
// delivered event, so the delivered inputs are stale and no dirty mark
// exists. The next delivered trigger must detect the
// suppression-counter mismatch and force a FullRecompute at delivery,
// bringing the dropped change into the bounds.
func TestBatchedSuppressionRecovery(t *testing.T) {
	p := newBatchedPair(8)
	c0 := p.addContainer(t, "c0")
	c1 := p.addContainer(t, "c1")
	l0, _ := p.checkBounds(t, "setup", c0)

	// Drop the next CPU-limit event on the floor.
	p.hier.Intercept(func(cgroups.Event) bool { return false })
	c0.SetShares(3000)
	p.hier.Intercept(nil)
	if p.hier.Suppressed() != 1 {
		t.Fatalf("Suppressed() = %d, want 1", p.hier.Suppressed())
	}
	// No delivered trigger yet: the monitor must still hold the pre-drop
	// bounds (stale, as the contract allows until recovery).
	if l, _ := p.mB.nsOf(c0).CPUBounds(); l != l0 {
		t.Fatalf("c0 lower bound %d before any delivered trigger, want stale %d", l, l0)
	}

	// A delivered trigger forces the recovery FullRecompute at delivery
	// time; both monitors then reflect the dropped change.
	c1.SetShares(900)
	lower, _ := p.checkBounds(t, "post-recovery", c0)
	p.checkBounds(t, "post-recovery", c1)
	// c0 guarantees 3000/3900 of 8 CPUs = ceil(6.15) = 7 — visible only
	// if the dropped shares change made it into the cache.
	if lower != 7 {
		t.Fatalf("c0 lower bound = %d after recovery, want 7 (dropped shares absorbed)", lower)
	}
	if p.mB.seenSuppressed != p.hier.Suppressed() {
		t.Fatalf("production monitor seenSuppressed = %d, hierarchy %d: recovery did not resynchronize",
			p.mB.seenSuppressed, p.hier.Suppressed())
	}
	if err := noMarks(p.mB); err != nil {
		t.Fatalf("recovery FullRecompute left stale marks behind: %v", err)
	}
}

// TestBoundsFlushCounts pins where the one flush runs, in work counts:
// n quota writes to one pod between two bounds reads cost a single
// flush at the second read, which recomputes the pod's two members
// once — a top already marked is not queued again, so the flush costs
// the distinct tops, not the writes.
func TestBoundsFlushCounts(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		const n = 5
		clock := sim.NewClock(time.Millisecond)
		hier := cgroups.NewHierarchy(cfs.NewScheduler(8), memctl.New(memctl.Config{Total: 16 * units.GiB}))
		mon := NewMonitor(hier, clock, Options{})
		mon.Attach(hier.Create("c0"))
		pod := hier.Create("pod")
		nsA := mon.Attach(hier.CreateChild(pod, "a"))
		mon.Attach(hier.CreateChild(pod, "b"))
		nsA.CPUBounds() // first read: every earlier mark is applied

		tr := telemetry.New(0)
		mon.Trace = tr
		for i := 0; i < n; i++ {
			pod.SetQuotaCPUs(float64(1 + i))
		}
		nsA.CPUBounds() // second read
		if got := tr.Count(telemetry.CtrBoundsFlushes); got != 1 {
			t.Errorf("bounds flushes = %d, want 1", got)
		}
		if got := tr.Count(telemetry.CtrBoundsRecomputed); got != 2 {
			t.Errorf("bounds recomputed = %d, want 2", got)
		}
	})

	// Writes to most of the fleet's tops still recompute only those tops:
	// no number of marks turns the flush into a pass over every
	// namespace.
	t.Run("distinct", func(t *testing.T) {
		const n, written = 8, 7
		clock := sim.NewClock(time.Millisecond)
		hier := cgroups.NewHierarchy(cfs.NewScheduler(8), memctl.New(memctl.Config{Total: 16 * units.GiB}))
		mon := NewMonitor(hier, clock, Options{})
		cgs := make([]*cgroups.Cgroup, n)
		for i := range cgs {
			cgs[i] = hier.Create(fmt.Sprintf("c%d", i))
			mon.Attach(cgs[i])
		}
		nsLast := mon.nsOf(cgs[n-1])
		nsLast.CPUBounds()

		tr := telemetry.New(0)
		mon.Trace = tr
		for range 3 {
			for _, cg := range cgs[:written] {
				cg.SetQuotaCPUs(2)
			}
		}
		nsLast.CPUBounds()
		if got := tr.Count(telemetry.CtrBoundsFlushes); got != 1 {
			t.Errorf("bounds flushes = %d, want 1", got)
		}
		if got := tr.Count(telemetry.CtrBoundsRecomputed); got != written {
			t.Errorf("bounds recomputed = %d, want %d", got, written)
		}
	})
}

// dropNext withholds the limit events write publishes from every
// subscriber, as a fault injector's event drop does.
func dropNext(hier *cgroups.Hierarchy, write func()) {
	hier.Intercept(func(cgroups.Event) bool { return false })
	write()
	hier.Intercept(nil)
}

// TestPendingMarkKeepsDroppedEventStale pins that a flush never reads a
// change the monitor was not told about. Another trigger's mark is still
// pending when a limit event is dropped; the read that flushes the mark
// must recompute the dropped cgroup's bounds from its delivered inputs,
// so they stay stale until the next delivered trigger repairs them
// (DESIGN.md §9).
func TestPendingMarkKeepsDroppedEventStale(t *testing.T) {
	newMon := func() (*cgroups.Hierarchy, *Monitor) {
		hier := cgroups.NewHierarchy(cfs.NewScheduler(8), memctl.New(memctl.Config{Total: 16 * units.GiB}))
		return hier, NewMonitor(hier, sim.NewClock(time.Millisecond), Options{})
	}
	upper := func(ns *SysNamespace) int { _, u := ns.CPUBounds(); return u }

	t.Run("flat", func(t *testing.T) {
		hier, mon := newMon()
		a, b := hier.Create("a"), hier.Create("b")
		nsA := mon.Attach(a)
		nsB := mon.Attach(b) // a new top: every view is marked, unflushed
		if !mon.BoundsDeferred() {
			t.Fatal("attaching b left no pending mark")
		}
		dropNext(hier, func() { a.SetQuotaCPUs(2) })
		nsB.CPUBounds() // the flush
		if got := upper(nsA); got != 8 {
			t.Fatalf("a upper = %d after a flush with its quota event dropped, want stale 8", got)
		}
		b.SetShares(2048) // delivered: the suppression recovery re-reads a's quota
		if got := upper(nsA); got != 2 {
			t.Fatalf("a upper = %d after the next delivered trigger, want 2", got)
		}
	})

	t.Run("pod", func(t *testing.T) {
		hier, mon := newMon()
		pod := hier.Create("pod")
		nsK1 := mon.Attach(hier.CreateChild(pod, "k1"))
		nsK1.CPUBounds()
		k2 := hier.CreateChild(pod, "k2")
		mon.Attach(k2) // the pod's subtree is marked, unflushed
		if !mon.BoundsDeferred() {
			t.Fatal("attaching k2 left no pending mark")
		}
		dropNext(hier, func() { pod.SetQuotaCPUs(2) })
		if got := upper(nsK1); got != 8 {
			t.Fatalf("k1 upper = %d after a flush with its pod's quota event dropped, want stale 8", got)
		}
		k2.SetShares(512) // delivered: recovery
		if got := upper(nsK1); got != 2 {
			t.Fatalf("k1 upper = %d after the next delivered trigger, want 2", got)
		}
	})
}

// TestDroppedMarksClearTheirBits pins the trap of the mark bits: a path
// that drops dirtyTops without flushing them must clear the bits of the
// tops it held, or a stale bit swallows every later mark of its top.
// Each case leaves a pod's mark pending, drops the marks one way, and
// then writes the pod's quota, which must reach its member's bounds.
func TestDroppedMarksClearTheirBits(t *testing.T) {
	for _, tc := range []struct {
		name string
		// drop drops the pending marks; c is a flat container, kid the
		// pod's one attached member.
		drop func(hier *cgroups.Hierarchy, mon *Monitor, c, kid *cgroups.Cgroup)
	}{
		// markAllDirty: the pod's last namespace leaves Σw_j, and its
		// re-attach brings the pod back as a new top.
		{"detach-last", func(_ *cgroups.Hierarchy, mon *Monitor, _, kid *cgroups.Cgroup) {
			mon.Detach(kid)
			mon.Attach(kid)
		}},
		// FullRecompute: a delivered event after a dropped one recovers.
		{"recovery", func(hier *cgroups.Hierarchy, _ *Monitor, c, kid *cgroups.Cgroup) {
			dropNext(hier, func() { c.SetShares(2048) })
			kid.SetMemLimits(units.GiB, units.GiB/2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hier := cgroups.NewHierarchy(cfs.NewScheduler(8), memctl.New(memctl.Config{Total: 16 * units.GiB}))
			mon := NewMonitor(hier, sim.NewClock(time.Millisecond), Options{})
			c := hier.Create("c")
			mon.Attach(c)
			pod := hier.Create("pod")
			kid := hier.CreateChild(pod, "pod/k")
			mon.Attach(kid)
			upper := func() int { _, u := mon.nsOf(kid).CPUBounds(); return u }
			upper()

			pod.SetQuotaCPUs(4)
			if !mon.byID[pod.ID()].marked || len(mon.dirtyTops) != 1 {
				t.Fatalf("pod quota write: marked=%v, dirtyTops %v; want the pod queued once",
					mon.byID[pod.ID()].marked, mon.dirtyTops)
			}
			tc.drop(hier, mon, c, kid)
			if err := marksConsistent(mon); err != nil {
				t.Fatalf("after dropping the marks: %v", err)
			}
			if got := upper(); got != 4 {
				t.Fatalf("kid upper = %d after the drop, want 4", got)
			}
			pod.SetQuotaCPUs(2)
			if got := upper(); got != 2 {
				t.Fatalf("kid upper = %d after the pod's next quota write, want 2", got)
			}
			if err := noMarks(mon); err != nil {
				t.Fatal(err)
			}
		})
	}
}
