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

// batchedPair is a batched monitor and a full-recompute reference over
// one hierarchy. The reference rebuilds from live state at every
// delivered trigger, so wherever the batched contract promises "live
// state at a flush boundary" the two must agree exactly.
type batchedPair struct {
	clock *sim.Clock
	hier  *cgroups.Hierarchy
	mB    *Monitor // batched deferred recompute
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
		mB:    NewMonitor(hier, clock, Options{BatchedRecompute: true}),
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

// deferred reports whether the batched monitor holds recompute marks
// for its next flush boundary.
func (p *batchedPair) deferred() bool { return p.mB.BoundsDeferred() }

// checkBounds flushes both monitors (the bounds read is the batched
// flush boundary) and asserts they agree on cg.
func (p *batchedPair) checkBounds(t *testing.T, when string, cg *cgroups.Cgroup) (lower, upper int) {
	t.Helper()
	nsB, nsR := p.mB.Lookup(cg), p.mR.Lookup(cg)
	if nsB == nil || nsR == nil {
		t.Fatalf("%s: %s not attached on both monitors", when, cg.Name)
	}
	bl, bu := nsB.CPUBounds()
	rl, ru := nsR.CPUBounds()
	if bl != rl || bu != ru {
		t.Fatalf("%s: %s bounds diverged: batched [%d,%d], reference [%d,%d]", when, cg.Name, bl, bu, rl, ru)
	}
	if e := nsB.EffectiveCPU(); e < bl || e > bu {
		t.Fatalf("%s: %s batched E_CPU %d outside [%d,%d]", when, cg.Name, e, bl, bu)
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
	nsTmp := p.mB.Lookup(tmp)
	tmp.SetShares(4096)
	tmp.SetQuotaCPUs(1)
	p.hier.Remove(tmp)
	if p.mB.Lookup(tmp) != nil {
		t.Fatal("tmp still attached after its Removed event was delivered")
	}
	if !p.deferred() {
		t.Fatal("tmp lifecycle events left no deferred recompute mark")
	}

	// One flush boundary applies the whole lifetime.
	l0, _ := p.checkBounds(t, "after-flush", c0)
	p.checkBounds(t, "after-flush", c1)
	if want := p.mR.totalTop; p.mB.totalTop != want {
		t.Fatalf("batched totalTop = %d after create+remove coalesced, reference %d", p.mB.totalTop, want)
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
	nsC0 := p.mB.Lookup(c0)
	p.mB.FullRecompute()
	if l, _ := nsC0.CPUBounds(); l != l0 {
		t.Fatalf("c0 lower bound %d after flush, %d after full rebuild", l0, l)
	}
}

// TestBatchedSuppressionRecovery drives the suppressed-event recovery
// path under the batched layout: an interceptor-dropped limit change
// moves live state without a delivered event, so the share cache is
// stale and no dirty mark exists. The next delivered trigger must
// detect the suppression-counter mismatch and force a FullRecompute —
// eagerly, exactly as on the synchronous path — bringing the dropped
// change into the bounds.
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
	// No delivered trigger yet: the batched monitor must still hold the
	// pre-drop bounds (stale, as the contract allows until recovery).
	if l, _ := p.mB.Lookup(c0).CPUBounds(); l != l0 {
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
		t.Fatalf("batched monitor seenSuppressed = %d, hierarchy %d: recovery did not resynchronize",
			p.mB.seenSuppressed, p.hier.Suppressed())
	}
	if p.mB.boundsDirtyAll || len(p.mB.dirtyTops) != 0 {
		t.Fatal("recovery FullRecompute left stale dirty marks behind")
	}
}

// TestBoundsFlushCounts pins where the one flush runs in each mode, in
// work counts: n quota writes to one pod between two bounds reads cost n
// flushes under the eager contract (one per trigger) and a single
// flush under batching. Either way every write's mark recomputes the
// pod's two members once — batching coalesces passes, and duplicate
// marks on one top still recompute it each time.
func TestBoundsFlushCounts(t *testing.T) {
	const n = 5
	for _, tc := range []struct {
		name    string
		batched bool
		flushes uint64
	}{{"eager", false, n}, {"batched", true, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			clock := sim.NewClock(time.Millisecond)
			hier := cgroups.NewHierarchy(cfs.NewScheduler(8), memctl.New(memctl.Config{Total: 16 * units.GiB}))
			mon := NewMonitor(hier, clock, Options{BatchedRecompute: tc.batched})
			mon.Attach(hier.Create("c0"))
			pod := hier.Create("pod")
			nsA := mon.Attach(hier.CreateChild(pod, "a"))
			mon.Attach(hier.CreateChild(pod, "b"))
			nsA.CPUBounds() // first read: every earlier mark is applied

			tr := telemetry.New(0)
			mon.AttachTelemetry(tr)
			for i := 0; i < n; i++ {
				pod.SetQuotaCPUs(float64(1 + i))
			}
			nsA.CPUBounds() // second read
			if got := tr.Count(telemetry.CtrBoundsFlushes); got != tc.flushes {
				t.Errorf("bounds flushes = %d, want %d", got, tc.flushes)
			}
			if got := tr.Count(telemetry.CtrBoundsRecomputed); got != 2*n {
				t.Errorf("bounds recomputed = %d, want %d", got, 2*n)
			}
		})
	}
}
