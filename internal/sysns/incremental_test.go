package sysns

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"arv/internal/cfs"
	"arv/internal/cgroups"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/units"
)

// mirror is a trio of monitors over one hierarchy: mA on the incremental
// dirty-subtree path, mB pinned to the historical full-recompute path,
// mC on the batched deferred-recompute path. Every cgroup is attached to
// all three or none, so after any hierarchy operation (and, for mC, a
// flush) they must agree on every namespace's bounds.
type mirror struct {
	clock *sim.Clock
	sched *cfs.Scheduler
	hier  *cgroups.Hierarchy
	mA    *Monitor
	mB    *Monitor
	mC    *Monitor
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
		mC:    NewMonitor(hier, clock, Options{BatchedRecompute: true}),
	}
}

func (m *mirror) attach(cg *cgroups.Cgroup) { m.mA.Attach(cg); m.mB.Attach(cg); m.mC.Attach(cg) }
func (m *mirror) detach(cg *cgroups.Cgroup) { m.mA.Detach(cg); m.mB.Detach(cg); m.mC.Detach(cg) }

// check asserts (1) the incremental monitor agrees with the legacy one
// on every namespace, (2) the incremental and batched caches match a
// fresh derivation from the live hierarchy, and (3) the batched
// monitor's flushed bounds are a fixed point of FullRecompute — nothing
// a deferred mark carried was lost — with E_CPU inside them.
//
// The batched monitor is deliberately NOT compared against the eager
// pair's bounds: the eager contract preserves the historical walk's
// trigger-time inputs (a pod member created without attaching dilutes
// its siblings only at the next recompute trigger, via pendingTops),
// while a batched flush recomputes from live state and may absorb such
// a dilution earlier. For flat fleets the two coincide —
// TestBatchedMatchesFullUnderFaults asserts exactly that at host level —
// but under pod schedules the batched contract is "live state at every
// flush boundary", which the FullRecompute fixed point pins down.
// E_CPU equality is likewise not part of the batched contract (the
// clamp is stateful, so deferral is observable; see
// Options.BatchedRecompute).
func (m *mirror) check(t *testing.T, step int, op string) {
	t.Helper()
	if la, lb, lc := len(m.mA.order), len(m.mB.order), len(m.mC.order); la != lb || la != lc {
		t.Fatalf("step %d (%s): namespace counts diverged: %d vs %d vs %d", step, op, la, lb, lc)
	}
	for _, nsA := range m.mA.order {
		nsB := m.mB.Lookup(nsA.cg)
		if nsB == nil {
			t.Fatalf("step %d (%s): %s attached on incremental monitor only", step, op, nsA.cg.Name)
		}
		al, au := nsA.CPUBounds()
		bl, bu := nsB.CPUBounds()
		if al != bl || au != bu || nsA.EffectiveCPU() != nsB.EffectiveCPU() {
			t.Fatalf("step %d (%s): %s bounds diverged: incremental [%d,%d] e=%d, full [%d,%d] e=%d",
				step, op, nsA.cg.Name, al, au, nsA.EffectiveCPU(), bl, bu, nsB.EffectiveCPU())
		}
		if m.mC.Lookup(nsA.cg) == nil {
			t.Fatalf("step %d (%s): %s missing on batched monitor", step, op, nsA.cg.Name)
		}
	}

	// Cache invariants, derived the way FullRecompute would. The batched
	// monitor maintains the same cache with eager per-event deltas, and
	// the full-recompute reference rebuilds it on every trigger, so both
	// are held to the identical invariant.
	var totalTop int64
	refs := make(map[*cgroups.Cgroup]int)
	for _, ns := range m.mA.order {
		top := topOf(ns.cg)
		if refs[top] == 0 {
			totalTop += top.CPU.Shares
		}
		refs[top]++
	}
	for _, mon := range []struct {
		name string
		m    *Monitor
	}{{"incremental", m.mA}, {"full", m.mB}, {"batched", m.mC}} {
		if mon.m.totalTop != totalTop {
			t.Fatalf("step %d (%s): %s cached totalTop = %d, fresh derivation = %d", step, op, mon.name, mon.m.totalTop, totalTop)
		}
		if n := trackedEntries(mon.m); n != len(refs) {
			t.Fatalf("step %d (%s): %s cached %d top entries, fresh derivation has %d", step, op, mon.name, n, len(refs))
		}
		for top, want := range refs {
			var e cgEntry
			if mon.m.tracked(top.ID()) {
				e = mon.m.byID[top.ID()]
			}
			if int(e.refs) != want || e.shares != top.CPU.Shares || e.cg != top {
				t.Fatalf("step %d (%s): %s top %s cache {refs %d, shares %d}, want {refs %d, shares %d}",
					step, op, mon.name, top.Name, e.refs, e.shares, want, top.CPU.Shares)
			}
		}
	}
	for _, mon := range []*Monitor{m.mA, m.mB, m.mC} {
		if err := indexConsistent(mon); err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
	}

	// Batched fixed point: flush (any bounds read), record, then rebuild
	// everything from live state — nothing may move. A lost or mis-scoped
	// dirty mark would leave some namespace's flushed bounds behind the
	// live hierarchy, and the rebuild would expose it. FullRecompute here
	// does not perturb the schedule: the cache it rebuilds was just
	// checked against the same fresh derivation, and re-clamping E_CPU
	// into unchanged bounds is a no-op.
	type span struct{ lower, upper, e int }
	flushed := make(map[*cgroups.Cgroup]span, len(m.mC.order))
	for _, ns := range m.mC.order {
		l, u := ns.CPUBounds() // flush boundary: deferred marks apply here
		e := ns.EffectiveCPU()
		if e < l || e > u {
			t.Fatalf("step %d (%s): %s batched E_CPU %d outside bounds [%d,%d]", step, op, ns.cg.Name, e, l, u)
		}
		flushed[ns.cg] = span{l, u, e}
	}
	m.mC.FullRecompute()
	for _, ns := range m.mC.order {
		l, u := ns.CPUBounds()
		got := span{l, u, ns.EffectiveCPU()}
		if got != flushed[ns.cg] {
			t.Fatalf("step %d (%s): %s batched flush lost a mark: flushed {[%d,%d] e=%d}, full rebuild {[%d,%d] e=%d}",
				step, op, ns.cg.Name, flushed[ns.cg].lower, flushed[ns.cg].upper, flushed[ns.cg].e, got.lower, got.upper, got.e)
		}
	}
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
		if cg := r.anyCg(); cg != nil && r.mA.Lookup(cg) == nil {
			r.attach(cg)
			return "attach"
		}
	case op < 19 && len(r.flats)+len(r.kids) > 0: // remove a leaf
		cg := r.pick(r.leaves())
		r.hier.Remove(cg)
		r.flats, r.kids = drop(r.flats, cg), drop(r.kids, cg)
		return "remove-leaf"
	case op == 20: // drop a limit event; the next delivered trigger recovers
		cg := r.anyCg()
		if cg == nil {
			break
		}
		r.hier.Intercept(func(cgroups.Event) bool { return false })
		if r.next(2) == 0 {
			cg.SetShares(int64(2 + r.next(4096)))
		} else {
			r.setQuota(cg)
		}
		r.hier.Intercept(nil)
		// A memory-limit event moves no CPU bound, so only the
		// suppression recovery can bring the dropped change in.
		r.setMem(r.anyCg())
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
// attached) on every resync and suppression recovery. Every untracked
// entry is poisoned before the rebuild and must come out untouched,
// while the tracked ones are rebuilt exactly.
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
	for _, mon := range []*Monitor{m.mA, m.mB, m.mC} {
		if len(mon.byID) < churn {
			t.Fatalf("table has %d entries after %d restarts; the poison check needs them", len(mon.byID), churn)
		}
		for i := range mon.byID {
			if mon.byID[i].refs == 0 {
				mon.byID[i].shares = poison
			}
		}
		mon.FullRecompute()
		for i, e := range mon.byID {
			if e.refs == 0 && e.shares != poison {
				t.Fatalf("FullRecompute reset untracked entry %d", i)
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
