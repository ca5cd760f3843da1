package sysns

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"arv/internal/cfs"
	"arv/internal/cgroups"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/units"
)

// mirror is a pair of monitors over one hierarchy: mA on the production
// mark-and-flush path, mB pinned to the full-recompute reference. Every
// cgroup is attached to both or neither, so after any hierarchy
// operation they must agree on every namespace's bounds.
type mirror struct {
	clock *sim.Clock
	sched *cfs.Scheduler
	hier  *cgroups.Hierarchy
	mA    *Monitor
	mB    *Monitor

	// dropped is the limit event withheld from both monitors and not yet
	// followed by a delivered trigger, or nil.
	dropped *droppedEvent
}

// droppedEvent is a limit change on cg that no monitor was told about,
// with cg's delivered inputs (and its pod's sibling sum) as they stood
// before the change. Until the next delivered trigger those are the
// values every monitor must keep.
type droppedEvent struct {
	cg        *cgroups.Cgroup
	shares    int64
	cap       int32
	parentSum int64
}

func newMirror(cpus int) *mirror {
	clock := sim.NewClock(time.Millisecond)
	sched := cfs.NewScheduler(cpus)
	mem := memctl.New(memctl.Config{Total: 64 * units.GiB})
	hier := cgroups.NewHierarchy(sched, mem)
	return &mirror{
		clock: clock,
		sched: sched,
		hier:  hier,
		mA:    NewMonitor(hier, clock, Options{}),
		mB:    newFullRecomputeMonitor(hier, clock),
	}
}

func (m *mirror) attach(cg *cgroups.Cgroup) { m.mA.Attach(cg); m.mB.Attach(cg) }
func (m *mirror) detach(cg *cgroups.Cgroup) { m.mA.Detach(cg); m.mB.Detach(cg) }

// check asserts, after every operation:
//
//  1. Both monitors hold the same namespaces, and their bounds agree
//     exactly, with E_CPU inside them.
//  2. The production monitor's bounds are a function of its delivered
//     inputs: marking every view and flushing again moves no bound and
//     no E_CPU, even with a drop outstanding (a flush that read the
//     hierarchy would pick the dropped change up here).
//  3. Each monitor's delivered inputs match the hierarchy for every live
//     cgroup, except that a dropped event's cgroup keeps its pre-drop
//     values until the next delivered trigger; refs and totalTop match
//     a fresh derivation over those inputs.
//  4. With no event outstanding, the production monitor's flushed state
//     is a fixed point of FullRecompute: a rebuild from live state moves
//     no bound and no E_CPU. A lost or mis-scoped mark would leave some
//     namespace's flushed bounds behind the hierarchy, and the rebuild
//     would expose it.
//  5. Both monitors' marks are consistent before the flush
//     (marksConsistent), and on the production monitor a flush or a
//     FullRecompute leaves none: no dirtyTops entry and no marked bit.
//
// E_CPU is not compared across the two monitors: the reference clamps it
// at every trigger, the production monitor only at reads, and the clamp
// is stateful (DESIGN.md §14).
func (m *mirror) check(t *testing.T, step int, op string) {
	t.Helper()
	for _, mon := range []*Monitor{m.mA, m.mB} {
		if err := marksConsistent(mon); err != nil {
			t.Fatalf("step %d (%s): before the flush: %v", step, op, err)
		}
	}
	if la, lb := len(m.mA.order), len(m.mB.order); la != lb {
		t.Fatalf("step %d (%s): namespace counts diverged: %d vs %d", step, op, la, lb)
	}
	for _, nsA := range m.mA.order {
		nsB := m.mB.nsOf(nsA.cg)
		if nsB == nil {
			t.Fatalf("step %d (%s): %s attached on the production monitor only", step, op, nsA.cg.Name)
		}
		al, au := nsA.CPUBounds() // flush boundary: deferred marks apply here
		bl, bu := nsB.CPUBounds()
		if al != bl || au != bu {
			t.Fatalf("step %d (%s): %s bounds diverged: production [%d,%d], full [%d,%d]",
				step, op, nsA.cg.Name, al, au, bl, bu)
		}
		if e := nsA.EffectiveCPU(); e < al || e > au {
			t.Fatalf("step %d (%s): %s E_CPU %d outside bounds [%d,%d]", step, op, nsA.cg.Name, e, al, au)
		}
	}

	m.mA.flush() // the reads above flushed unless no namespace is left
	if err := noMarks(m.mA); err != nil {
		t.Fatalf("step %d (%s): after the flush: %v", step, op, err)
	}

	flushed := views(m.mA)
	m.mA.markAllDirty()
	m.mA.flush()
	if err := sameViews(m.mA, flushed); err != nil {
		t.Fatalf("step %d (%s): re-flushing every view from delivered inputs moved it: %v", step, op, err)
	}

	for _, mon := range []struct {
		name string
		m    *Monitor
	}{{"production", m.mA}, {"full", m.mB}} {
		if err := m.inputsDelivered(mon.m); err != nil {
			t.Fatalf("step %d (%s): %s: %v", step, op, mon.name, err)
		}
		if err := indexConsistent(mon.m); err != nil {
			t.Fatalf("step %d (%s): %s: %v", step, op, mon.name, err)
		}
	}

	if m.dropped != nil {
		return
	}
	m.mA.FullRecompute()
	if err := sameViews(m.mA, flushed); err != nil {
		t.Fatalf("step %d (%s): flush lost a mark: %v", step, op, err)
	}
	if err := noMarks(m.mA); err != nil {
		t.Fatalf("step %d (%s): after FullRecompute: %v", step, op, err)
	}
}

// marksConsistent checks the bounds marks' bookkeeping: dirtyTops holds
// each top once, every top in it has its marked bit set unless its
// entry was cleared by the cgroup's removal, no other entry has the bit
// set, and a pending boundsDirtyAll has subsumed every top mark.
func marksConsistent(m *Monitor) error {
	queued := make(map[int]bool, len(m.dirtyTops))
	for _, top := range m.dirtyTops {
		if queued[top] {
			return fmt.Errorf("top %d queued twice in dirtyTops %v", top, m.dirtyTops)
		}
		queued[top] = true
		if e := m.byID[top]; !e.marked && e.cg != nil {
			return fmt.Errorf("top %d (%s) queued without its marked bit", top, e.cg.Name)
		}
	}
	for id, e := range m.byID {
		if e.marked && !queued[id] {
			return fmt.Errorf("entry %d marked but not queued", id)
		}
	}
	if m.boundsDirtyAll && len(m.dirtyTops) > 0 {
		return fmt.Errorf("boundsDirtyAll set with %d top marks queued", len(m.dirtyTops))
	}
	return nil
}

// noMarks checks that m holds no bounds mark: the state every flush and
// every FullRecompute must leave.
func noMarks(m *Monitor) error {
	if m.BoundsDeferred() {
		return fmt.Errorf("marks left: boundsDirtyAll=%v, dirtyTops %v", m.boundsDirtyAll, m.dirtyTops)
	}
	return marksConsistent(m)
}

// view is one namespace's flushed Algorithm 1 state.
type view struct{ lower, upper, e int }

// views reads every namespace's bounds and E_CPU (the reads flush).
func views(mon *Monitor) map[*cgroups.Cgroup]view {
	vs := make(map[*cgroups.Cgroup]view, len(mon.order))
	for _, ns := range mon.order {
		l, u := ns.CPUBounds()
		vs[ns.cg] = view{l, u, ns.EffectiveCPU()}
	}
	return vs
}

// sameViews reports the first namespace whose flushed state differs from
// want.
func sameViews(mon *Monitor, want map[*cgroups.Cgroup]view) error {
	for cg, got := range views(mon) {
		if w := want[cg]; got != w {
			return fmt.Errorf("%s was {[%d,%d] e=%d}, now {[%d,%d] e=%d}",
				cg.Name, w.lower, w.upper, w.e, got.lower, got.upper, got.e)
		}
	}
	return nil
}

// inputsDelivered checks mon's per-cgroup inputs against the hierarchy
// (or, for a dropped event's cgroup, against its pre-drop values), and
// its refs and totalTop against a fresh derivation over those inputs.
func (m *mirror) inputsDelivered(mon *Monitor) error {
	p := m.sched.NCPU()
	for _, cg := range m.hier.Cgroups() {
		var sum int64
		for _, c := range cg.Children() {
			sum += c.CPU.Shares
		}
		shares, cp := cg.CPU.Shares, int32(capCPUs(cg.CPU, p))
		if d := m.dropped; d != nil {
			if cg == d.cg {
				shares, cp = d.shares, d.cap
			}
			if cg == d.cg.Parent {
				sum = d.parentSum
			}
		}
		var e cgEntry
		if cg.ID() < len(mon.byID) {
			e = mon.byID[cg.ID()]
		}
		if e.cg != cg || e.shares != shares || e.cap != cp || e.sum != sum {
			return fmt.Errorf("%s inputs {shares %d, cap %d, sum %d}, want {shares %d, cap %d, sum %d}",
				cg.Name, e.shares, e.cap, e.sum, shares, cp, sum)
		}
	}
	var totalTop int64
	refs := make(map[*cgroups.Cgroup]int)
	for _, ns := range mon.order {
		top := topOf(ns.cg)
		if refs[top] == 0 {
			totalTop += mon.byID[top.ID()].shares
		}
		refs[top]++
	}
	if mon.totalTop != totalTop {
		return fmt.Errorf("cached totalTop = %d, fresh derivation = %d", mon.totalTop, totalTop)
	}
	if n := trackedEntries(mon); n != len(refs) {
		return fmt.Errorf("cached %d top entries, fresh derivation has %d", n, len(refs))
	}
	for top, want := range refs {
		if got := mon.byID[top.ID()].refs; int(got) != want {
			return fmt.Errorf("top %s refs = %d, want %d", top.Name, got, want)
		}
	}
	return nil
}

// trackedEntries counts m's share-cache entries: the top-level entities
// with attached namespaces below them.
func trackedEntries(m *Monitor) int {
	n := 0
	for _, e := range m.byID {
		if e.refs > 0 {
			n++
		}
	}
	return n
}

// indexConsistent checks the monitor's twin bookkeeping structures: the
// ID-indexed table (nsOf) and the attach-order lists (order, orderSlots)
// must describe the same namespaces, once each, and no table entry may
// hold a namespace that is not in order (a detached one, or a removed
// cgroup's).
func indexConsistent(m *Monitor) error {
	if len(m.order) != len(m.orderSlots) {
		return fmt.Errorf("len(order)=%d, len(orderSlots)=%d", len(m.order), len(m.orderSlots))
	}
	indexed := 0
	for _, e := range m.byID {
		if e.ns != nil {
			indexed++
		}
	}
	if len(m.order) != indexed {
		return fmt.Errorf("len(order)=%d, indexed namespaces=%d", len(m.order), indexed)
	}
	seen := make(map[*SysNamespace]bool)
	for i, ns := range m.order {
		if seen[ns] {
			return fmt.Errorf("namespace %s appears twice in order", ns.cg.Name)
		}
		seen[ns] = true
		if m.nsOf(ns.cg) != ns {
			return fmt.Errorf("order entry %s not indexed by its cgroup ID", ns.cg.Name)
		}
		if int(m.orderSlots[i]) != ns.slot || int(m.byID[ns.cg.ID()].slot) != ns.slot {
			return fmt.Errorf("order entry %s: slot %d, orderSlots %d, table %d",
				ns.cg.Name, ns.slot, m.orderSlots[i], m.byID[ns.cg.ID()].slot)
		}
	}
	return nil
}

// mirrorRun drives a mirror through a stream of hierarchy operations.
// next(n) is the stream's source of choices in [0, n): a seeded PRNG in
// TestIncrementalMatchesFullRecompute, fuzz bytes in FuzzMonitorMirror.
type mirrorRun struct {
	*mirror
	next              func(n int) int
	flats, pods, kids []*cgroups.Cgroup
	nameSeq           int
}

func newMirrorRun(cpus int, next func(n int) int) *mirrorRun {
	return &mirrorRun{mirror: newMirror(cpus), next: next}
}

// mirrorOps is the number of distinct operations step chooses from.
const mirrorOps = 22

func (r *mirrorRun) newName(prefix string) string {
	r.nameSeq++
	return fmt.Sprintf("%s%d", prefix, r.nameSeq)
}

func (r *mirrorRun) pick(s []*cgroups.Cgroup) *cgroups.Cgroup { return s[r.next(len(s))] }

// anyCg picks a live cgroup of any kind, or nil when there is none.
func (r *mirrorRun) anyCg() *cgroups.Cgroup {
	all := make([]*cgroups.Cgroup, 0, len(r.flats)+len(r.pods)+len(r.kids))
	all = append(all, r.flats...)
	all = append(all, r.pods...)
	all = append(all, r.kids...)
	if len(all) == 0 {
		return nil
	}
	return r.pick(all)
}

// leaves returns the live flat containers and pod members.
func (r *mirrorRun) leaves() []*cgroups.Cgroup {
	return append(append([]*cgroups.Cgroup(nil), r.flats...), r.kids...)
}

func drop(s []*cgroups.Cgroup, cg *cgroups.Cgroup) []*cgroups.Cgroup {
	for i, x := range s {
		if x == cg {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// step applies one operation chosen by next and returns its name, or ""
// when the chosen operation had nothing to act on. It covers every
// hierarchy mutation the monitor reacts to — creations (flat, pods, late
// pod members), removals, attach/detach, all four limit setters — a
// limit event dropped before delivery, and a flat container killed and
// restarted under its old name (monitor state keyed by cgroup ID must
// not carry over to the new cgroup).
func (r *mirrorRun) step() string {
	if r.dropped != nil {
		// The check after drop-limit-event saw the drop outstanding. A
		// memory-limit event moves no CPU bound, so only the suppression
		// recovery can bring the dropped change in.
		r.setMem(r.anyCg())
	}
	switch op := r.next(mirrorOps); {
	case op < 4: // flat container, usually attached
		cg := r.hier.Create(r.newName("c"))
		r.flats = append(r.flats, cg)
		if r.next(10) < 7 {
			r.attach(cg)
		}
		return "create-flat"
	case op < 6: // pod with 1-3 members
		pod := r.hier.Create(r.newName("pod"))
		r.pods = append(r.pods, pod)
		for i := r.next(3) + 1; i > 0; i-- {
			kid := r.hier.CreateChild(pod, r.newName("k"))
			r.kids = append(r.kids, kid)
			if r.next(10) < 7 {
				r.attach(kid)
			}
		}
		return "create-pod"
	case op < 8 && len(r.pods) > 0: // late pod member (sibling dilution)
		kid := r.hier.CreateChild(r.pick(r.pods), r.newName("k"))
		r.kids = append(r.kids, kid)
		if r.next(2) == 0 {
			r.attach(kid)
		}
		return "create-late-member"
	case op < 11: // shares
		if cg := r.anyCg(); cg != nil {
			cg.SetShares(int64(2 + r.next(4096)))
			return "set-shares"
		}
	case op < 13: // quota
		if cg := r.anyCg(); cg != nil {
			r.setQuota(cg)
			return "set-quota"
		}
	case op < 14: // cpuset
		if cg := r.anyCg(); cg != nil {
			cg.SetCpuset(r.next(r.sched.NCPU() + 1))
			return "set-cpuset"
		}
	case op < 15: // memory limits (must not move CPU bounds)
		if cg := r.anyCg(); cg != nil {
			r.setMem(cg)
			return "set-mem"
		}
	case op < 16 && len(r.flats)+len(r.kids) > 0: // detach without removal
		r.detach(r.pick(r.leaves()))
		return "detach"
	case op < 17: // re-attach anything currently detached
		if cg := r.anyCg(); cg != nil && r.mA.nsOf(cg) == nil {
			r.attach(cg)
			return "attach"
		}
	case op < 19 && len(r.flats)+len(r.kids) > 0: // remove a leaf
		cg := r.pick(r.leaves())
		r.hier.Remove(cg)
		r.flats, r.kids = drop(r.flats, cg), drop(r.kids, cg)
		return "remove-leaf"
	case op == 20: // drop a limit event; the next step's memory event recovers
		cg := r.anyCg()
		if cg == nil {
			break
		}
		d := &droppedEvent{cg: cg, shares: r.mA.byID[cg.ID()].shares, cap: r.mA.byID[cg.ID()].cap}
		if p := cg.Parent; p != nil {
			d.parentSum = r.mA.byID[p.ID()].sum
		}
		r.hier.Intercept(func(cgroups.Event) bool { return false })
		if r.next(2) == 0 {
			cg.SetShares(int64(2 + r.next(4096)))
		} else {
			r.setQuota(cg)
		}
		r.hier.Intercept(nil)
		r.dropped = d
		return "drop-limit-event"
	case op == 21 && len(r.flats) > 0: // kill and restart under the same name
		old := r.pick(r.flats)
		r.hier.Remove(old)
		cg := r.hier.Create(old.Name)
		r.flats = append(drop(r.flats, old), cg)
		r.attach(cg)
		return "recreate-same-name"
	case len(r.pods) > 0: // remove a whole pod
		pod := r.pick(r.pods)
		for _, k := range pod.Children() {
			r.kids = drop(r.kids, k)
		}
		r.hier.Remove(pod)
		r.pods = drop(r.pods, pod)
		return "remove-pod"
	}
	return ""
}

func (r *mirrorRun) setQuota(cg *cgroups.Cgroup) {
	if r.next(4) == 0 {
		cg.SetQuota(-1, 100_000)
	} else {
		cg.SetQuota(int64(50_000+r.next(800_000)), 100_000)
	}
}

func (r *mirrorRun) setMem(cg *cgroups.Cgroup) {
	hard := units.Bytes(1+r.next(8)) * units.GiB
	cg.SetMemLimits(hard, hard/2)
	r.dropped = nil // a delivered trigger: both monitors resynchronize
}

// TestIncrementalMatchesFullRecompute drives a randomized stream of
// mirrorRun operations, asserting after every single step that the
// incremental bounds equal the full-recompute reference and that the
// share cache matches a fresh walk.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := newMirrorRun(32, rand.New(rand.NewSource(seed)).Intn)
			for step := 0; step < 1500; step++ {
				if op := r.step(); op != "" {
					r.check(t, step, op)
				}
			}
		})
	}
}

// FuzzMonitorMirror decodes a byte string into the operation stream of
// TestIncrementalMatchesFullRecompute and checks the mirror after every
// operation. The first byte picks the host size (1-32 CPUs); every
// later choice reads one byte — modulo n for n <= 256, scaled to [0, n)
// for larger n (shares and quotas) — so the operation code is the byte
// itself modulo mirrorOps. The input ends the stream; a choice past its
// end reads zero.
func FuzzMonitorMirror(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 0, 11, 0, 15, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024] // bound the work per input
		}
		i := 0
		next := func(n int) int {
			if i >= len(data) {
				return 0
			}
			v := int(data[i])
			i++
			if n > 256 {
				return v * n / 256
			}
			return v % n
		}
		r := newMirrorRun(1+next(32), next)
		for step := 0; i < len(data); step++ {
			if op := r.step(); op != "" {
				r.check(t, step, op)
			}
		}
	})
}

// TestOrderSpacesConsistency is the regression guard for the monitor's
// twin bookkeeping structures: the ID-indexed table (the cgroup index)
// and order (the deterministic iteration order) must stay in lockstep
// across attach, detach, removal, and kill/restart-style re-attachment.
func TestOrderSpacesConsistency(t *testing.T) {
	m := newMirror(16)
	verify := func(when string) {
		t.Helper()
		if err := indexConsistent(m.mA); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}

	cgs := make([]*cgroups.Cgroup, 6)
	for i := range cgs {
		cgs[i] = m.hier.Create(fmt.Sprintf("c%d", i))
		m.attach(cgs[i])
		verify("attach")
	}
	// Idempotent re-attach must not duplicate the order entry.
	m.attach(cgs[2])
	verify("re-attach")

	// Detach from the middle, then the ends.
	for _, i := range []int{3, 0, 5} {
		m.detach(cgs[i])
		verify("detach")
	}
	// Kill/restart: remove the cgroup entirely, recreate under the same
	// name, attach the fresh cgroup.
	m.hier.Remove(cgs[1])
	verify("kill")
	re := m.hier.Create("c1")
	m.attach(re)
	verify("restart")
	if re.ID() == cgs[1].ID() {
		t.Fatalf("re-created cgroup reuses ID %d", re.ID())
	}
	if e := m.mA.byID[cgs[1].ID()]; e != (cgEntry{}) {
		t.Fatalf("removed cgroup's table entry survives: %+v", e)
	}

	// Remaining attach order must be exactly the surviving attachments
	// in their original sequence, with the restart at the tail.
	want := []string{"c2", "c4", "c1"}
	if len(m.mA.order) != len(want) {
		t.Fatalf("final order has %d namespaces, want %d", len(m.mA.order), len(want))
	}
	for i, ns := range m.mA.order {
		if ns.cg.Name != want[i] {
			t.Fatalf("order[%d] = %s, want %s", i, ns.cg.Name, want[i])
		}
	}
}

// TestFullRecomputeResetsOnlyTrackedEntries pins FullRecompute's cost to
// the live fleet. byID never shrinks (IDs are not reused), so after a
// long kill/restart history most of its entries belong to removed
// cgroups; a reset that walked the whole table would cost O(cgroups ever
// created) on every resync and suppression recovery. Every removed
// cgroup's entry is poisoned before the rebuild and must come out
// untouched, while the tracked ones are rebuilt exactly.
func TestFullRecomputeResetsOnlyTrackedEntries(t *testing.T) {
	m := newMirror(4)
	for i := 0; i < 3; i++ {
		m.attach(m.hier.Create(fmt.Sprintf("flat%d", i)))
	}
	pod := m.hier.Create("pod")
	for i := 0; i < 2; i++ {
		m.attach(m.hier.CreateChild(pod, fmt.Sprintf("pod/c%d", i)))
	}
	const churn = 1000
	for i := 0; i < churn; i++ {
		cg := m.hier.Create("restarting")
		m.attach(cg)
		m.hier.Remove(cg)
	}
	m.check(t, 0, "churned")
	const poison = -7
	for _, mon := range []*Monitor{m.mA, m.mB} {
		if len(mon.byID) < churn {
			t.Fatalf("table has %d entries after %d restarts; the poison check needs them", len(mon.byID), churn)
		}
		// Every live cgroup's inputs are re-read; the removed cgroups'
		// entries (all zero since their Removed event) must not be.
		for i := range mon.byID {
			if mon.byID[i].cg == nil {
				mon.byID[i].shares = poison
			}
		}
		mon.FullRecompute()
		for i, e := range mon.byID {
			if e.cg == nil && e.shares != poison {
				t.Fatalf("FullRecompute reset removed cgroup's entry %d", i)
			}
		}
		if n := trackedEntries(mon); n != 4 {
			t.Fatalf("%d tracked entries after FullRecompute, want 4 (three flats and the pod)", n)
		}
		if want := int64(4 * 1024); mon.totalTop != want {
			t.Fatalf("totalTop = %d after FullRecompute, want %d", mon.totalTop, want)
		}
	}
}

// TestEntrySize pins the per-ID cost of byID, which never shrinks: a
// field added past cgEntry's padding would grow it for every cgroup
// ever created (DESIGN.md §10).
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(cgEntry{}); got != 48 {
		t.Fatalf("cgEntry is %d bytes, want 48", got)
	}
}
