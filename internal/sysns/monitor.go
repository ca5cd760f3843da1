package sysns

import (
	"slices"
	"time"

	"arv/internal/cfs"
	"arv/internal/cgroups"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/telemetry"
)

// Monitor is ns_monitor: the system-wide daemon (a kernel thread in the
// paper) that (1) creates and destroys sys_namespaces as containers come
// and go, (2) recomputes namespaces' CPU bounds from the cgroup settings
// its change notifications deliver — the share term of Algorithm 1
// couples all containers through Σw_j — and (3) drives the periodic
// effective-CPU/memory updates with an interval equal to the CFS
// scheduling period (§3.2).
type Monitor struct {
	// snapState is the versioned snapshot publication machinery (see
	// snapshot.go and DESIGN.md §11): the atomic pointer readers load,
	// the monotone version counter, and the dirty flags trigger
	// handlers set for the observe-phase flush.
	snapState

	hier  *cgroups.Hierarchy
	clock *sim.Clock
	opts  Options

	// order holds the live namespaces in attach order; orderSlots holds
	// their slots in the same order, so the O(n) passes (the update
	// round, bounds recomputes, the staleness scan) walk dense slot
	// arrays without loading a handle.
	order      []*SysNamespace
	orderSlots []int32

	// Slot-indexed hot state (struct-of-arrays, split by access pattern;
	// see the SysNamespace comment and DESIGN.md §14). Each handle's slot
	// indexes these parallel arrays. A slot is index-stable for the
	// namespace's lifetime and recycled through freeSlots after Detach
	// freezes it. nsCold holds the pointers the update round follows out
	// of the monitor (the controllers' accounting, the trace actor name).
	nsCPU     []cpuSlot
	nsMem     []memSlot
	nsMeta    []metaSlot
	nsCold    []coldSlot
	freeSlots []int

	// byID is the monitor's per-cgroup table, indexed by cgroups ID (see
	// cgEntry and DESIGN.md §10): for every cgroup the monitor has heard
	// of, the Algorithm 1 inputs its delivered events carried, its own
	// namespace, and for a top-level entity with attached namespaces
	// below it (for a flat container, its own cgroup; for a nested one,
	// the enclosing pod) a refcount of those namespaces. IDs are never
	// reused, so an entry never outlives its cgroup into a re-created
	// one; the price is that the table's length follows the highest ID
	// ever created (48 bytes per ID), not the live fleet, so no pass may
	// walk the whole table — the tracked entries are exactly the tops of
	// order. totalTop is Σ delivered shares over the tracked entries —
	// the denominator of every namespace's guaranteed fraction.
	// seenSuppressed is the hierarchy's suppression count at the last
	// full synchronization; when it moves, an event was dropped or
	// delayed before delivery and the delivered inputs no longer match
	// the hierarchy (see syncSuppressed).
	byID           []cgEntry
	totalTop       int64
	seenSuppressed uint64

	// Bounds marks (DESIGN.md §14). Every trigger only marks:
	// boundsDirtyAll for "every fraction changed", dirtyTops (entity IDs)
	// for one subtree. A queued top's entry keeps its marked bit set
	// until the marks are dropped (or the cgroup's removal zeroes the
	// entry), so the list holds each top once, in first-mark order.
	// flush applies the marks at the next read boundary.
	boundsDirtyAll bool
	dirtyTops      []int

	// fullRecompute pins the monitor to a full rebuild on every trigger:
	// the reference the differential tests hold the marks against. Only
	// the test seam UseFullRecompute sets it.
	fullRecompute bool

	// FixedPeriod, when non-zero, pins the update period instead of
	// tracking the scheduling period (used by the update-period
	// ablation).
	FixedPeriod time.Duration

	// Trace receives one KindNSUpdate event per namespace per round and
	// the monitor's counters. NewMonitor gives it a ring-less tracer
	// that counts.
	Trace *telemetry.Tracer

	lastUpdate sim.Time
	timer      sim.Timer
	started    bool
	late       bool // the pending firing runs a postponed round

	// Graceful-degradation state (see SetDegradation; all zero — fully
	// disabled — by default).
	intercept   UpdateInterceptor
	staleBudget time.Duration
	resyncMin   time.Duration
	resyncIvl   time.Duration
	resyncAt    sim.Time
}

// resyncCap bounds the resync backoff as a multiple of its minimum.
const resyncCap = 32

// UpdateInterceptor lets a fault layer perturb the periodic update
// loop. It is consulted when the update timer fires: skip=true drops
// the round entirely (the timer re-arms for the next period), a
// positive delay postpones the round — the values are then computed at
// the later instant, and the next period is measured from it, so lag
// stretches the effective update interval exactly as a slow ns_monitor
// kernel thread would.
type UpdateInterceptor func(now sim.Time) (delay time.Duration, skip bool)

// NewMonitor creates a monitor bound to the hierarchy and subscribes it
// to cgroup events. Namespaces are created only for cgroups registered
// through Attach (mirroring the paper: only containerized processes get
// a sys_namespace).
func NewMonitor(hier *cgroups.Hierarchy, clock *sim.Clock, opts Options) *Monitor {
	m := &Monitor{
		hier:           hier,
		clock:          clock,
		opts:           opts,
		seenSuppressed: hier.Suppressed(),
		Trace:          new(telemetry.Tracer),
	}
	// Cgroups that predate the subscription are heard of here, in
	// creation order (a parent before its children), as if created now.
	for _, cg := range hier.Cgroups() {
		m.onCreated(cg)
	}
	hier.Subscribe(m.onEvent)
	m.Publish(clock.Now()) // readers never observe a nil snapshot
	return m
}

// SetUpdateInterceptor installs fn on the periodic update path (nil
// removes it). The fault injector uses this to model a late or
// preempted ns_monitor thread.
func (m *Monitor) SetUpdateInterceptor(fn UpdateInterceptor) { m.intercept = fn }

// SetDegradation configures the graceful-degradation machinery (DESIGN.md
// §9), on a fresh or a live monitor. budget bounds how old a namespace's
// view may grow before the conservative fallback engages (E_CPU to the
// lower bound, E_MEM to the soft limit); resyncMin enables
// retry-with-backoff bounds recomputation: ns_monitor periodically
// re-derives every namespace's bounds straight from the cgroup
// hierarchy, recovering from limit-change events that were dropped
// before it saw them. The retry interval starts at resyncMin, doubles
// after every clean resync, resets to resyncMin when drift is found, and
// is capped at 32x resyncMin. Zero disables either mechanism; both are
// off by default, which is what every paper experiment uses.
func (m *Monitor) SetDegradation(budget, resyncMin time.Duration) {
	m.staleBudget = budget
	m.resyncMin = resyncMin
	m.resyncIvl = resyncMin
	if resyncMin > 0 {
		m.resyncAt = m.clock.Now() + resyncMin
	}
}

// cgEntry is the monitor's state for one cgroup, at its ID in byID,
// from the cgroup's Created event until its Removed event clears it.
//
// shares, cap and sum are the Algorithm 1 inputs as delivered: cpu.shares
// and cap = min(l/t, p, |M|) read when the cgroup's Created or CPUChanged
// event arrived, and for a pod the sum of its children's delivered shares.
// Bounds are computed from these alone, so a dropped event leaves them
// stale however late a flush runs; only FullRecompute re-reads the
// hierarchy (DESIGN.md §9). ns and slot are the cgroup's own namespace
// (nil when unattached), so the event and flush paths reach a flat
// container's slot with one indexed load. refs counts the attached
// namespaces in a top-level entity's subtree (itself included, for a
// flat container); an entry with refs == 0 is untracked, its shares
// outside totalTop. cg is the cgroup itself, for the walk over a pod's
// members. marked is set while the entry's ID is queued in dirtyTops;
// it sits in the struct's padding, so an entry stays 48 bytes.
type cgEntry struct {
	ns     *SysNamespace
	slot   int32
	refs   int32
	shares int64
	sum    int64
	cg     *cgroups.Cgroup
	cap    int32
	marked bool
}

// coldSlot is the update round's pointer group for one namespace slot:
// the cgroup's cpu and memory controller groups and its name, and the
// cpu group's scheduler index as of the last round (see cpuIndex).
type coldSlot struct {
	cpu    *cfs.Group
	mem    *memctl.Group
	name   string
	cpuIdx int32
}

// cpuIndex returns the slot's cpu group index in groups (the
// scheduler's Groups()). The cached index is checked against the dense
// groups array, so a round loads no cfs.Group; it is re-read from the
// group only after a RemoveGroup compaction has moved it. The group is
// live: the monitor detaches a namespace in its cgroup's Removed event,
// which the hierarchy publishes right after removing the group.
func (c *coldSlot) cpuIndex(groups []*cfs.Group) int {
	if i := int(c.cpuIdx); i < len(groups) && groups[i] == c.cpu {
		return i
	}
	c.cpuIdx = int32(c.cpu.Index())
	return int(c.cpuIdx)
}

// entry returns the table entry for cgroup ID id, growing the table when
// the ID is new to it.
func (m *Monitor) entry(id int) *cgEntry {
	if n := id + 1; n > len(m.byID) {
		// The table never shrinks, so the grown tail is zero.
		m.byID = slices.Grow(m.byID, n-len(m.byID))[:n]
	}
	return &m.byID[id]
}

// record reads cg's Algorithm 1 inputs from the hierarchy into its
// entry and returns the entry. It runs only where the monitor hears of
// cg: its Created or delivered CPUChanged event, and FullRecompute.
func (m *Monitor) record(cg *cgroups.Cgroup) *cgEntry {
	e := m.entry(cg.ID())
	e.cg, e.shares = cg, cg.CPU.Shares
	e.cap = int32(capCPUs(cg.CPU, m.hier.Scheduler().NCPU()))
	return e
}

// tracked reports whether the entity with ID id has attached namespaces
// in its subtree, i.e. whether its shares enter Σw_j.
func (m *Monitor) tracked(id int) bool { return id < len(m.byID) && m.byID[id].refs > 0 }

// nsOf returns cg's namespace, or nil when cg is not attached.
func (m *Monitor) nsOf(cg *cgroups.Cgroup) *SysNamespace {
	if id := cg.ID(); id < len(m.byID) {
		return m.byID[id].ns
	}
	return nil
}

// topOf returns the top-level entity whose shares enter Σw_j for cg: the
// enclosing pod for a nested container, cg itself otherwise.
func topOf(cg *cgroups.Cgroup) *cgroups.Cgroup {
	if cg.Parent != nil {
		return cg.Parent
	}
	return cg
}

// allocSlot returns a zeroed slot index, recycling freed ones before
// growing the parallel arrays.
func (m *Monitor) allocSlot() int {
	if n := len(m.freeSlots); n > 0 {
		s := m.freeSlots[n-1]
		m.freeSlots = m.freeSlots[:n-1]
		m.nsCPU[s], m.nsMem[s], m.nsMeta[s] = cpuSlot{}, memSlot{}, metaSlot{}
		return s
	}
	m.nsCPU = append(m.nsCPU, cpuSlot{})
	m.nsMem = append(m.nsMem, memSlot{})
	m.nsMeta = append(m.nsMeta, metaSlot{})
	m.nsCold = append(m.nsCold, coldSlot{})
	return len(m.nsCPU) - 1
}

// Attach creates a sys_namespace for cg (idempotent) and returns it.
func (m *Monitor) Attach(cg *cgroups.Cgroup) *SysNamespace {
	if ns := m.nsOf(cg); ns != nil {
		return ns
	}
	s := m.allocSlot()
	ns := &SysNamespace{cg: cg, mon: m, slot: s}
	m.nsMeta[s].lastAt = m.clock.Now()
	m.nsMem[s].prevKswapd = m.hier.Memory().KswapdRuns()
	m.nsCold[s] = coldSlot{cpu: cg.CPU, mem: cg.Mem, name: cg.Name, cpuIdx: int32(cg.CPU.Index())}
	top := topOf(cg)
	m.nsCPU[s].id, m.nsCPU[s].top = int32(cg.ID()), int32(top.ID())
	e := m.entry(cg.ID())
	e.ns, e.slot = ns, int32(s)
	m.order = append(m.order, ns)
	m.orderSlots = append(m.orderSlots, int32(s))
	if !m.syncSuppressed() {
		// Cache updates must complete before any bounds recompute: a
		// recompute against a half-applied Σw_j would clamp E_CPU through
		// an intermediate bounds state the atomic full walk never produces.
		te := m.entry(top.ID())
		tracked := te.refs > 0
		te.refs++
		if !tracked {
			m.totalTop += te.shares
		}
		// The new namespace needs bounds immediately (E_CPU initializes
		// from them); every other view coalesces into the next flush,
		// which turns a fleet build from O(n²) into O(n).
		m.recomputeSlot(s)
		if !tracked {
			// A new top-level entity enters Σw_j: every fraction changes.
			m.markAllDirty()
		} else {
			// The denominator is unchanged (sibling sums count all
			// children, attached or not); only the subtree needs bounds.
			m.markBoundsDirty(top.ID())
		}
	}
	ns.ResetMemory()
	// Publish: the new namespace (and, through the cut's flush, any
	// sibling whose bounds moved) becomes visible to lock-free readers
	// without waiting for a kernel step.
	m.publishTopo(m.clock.Now())
	return ns
}

// Detach removes cg's namespace (also triggered by cgroup removal).
func (m *Monitor) Detach(cg *cgroups.Cgroup) {
	ns := m.nsOf(cg)
	if ns == nil {
		return
	}
	e := &m.byID[cg.ID()]
	e.ns, e.slot = nil, 0
	i := slices.Index(m.orderSlots, int32(ns.slot))
	m.order = slices.Delete(m.order, i, i+1)
	m.orderSlots = slices.Delete(m.orderSlots, i, i+1)
	// Freeze the slot state into the handle: post-mortem readers (end-of-
	// run summaries over killed containers) keep the last live view, and
	// the slot can be recycled without them observing its next tenant.
	ns.finalCPU, ns.finalMem, ns.finalMeta = m.nsCPU[ns.slot], m.nsMem[ns.slot], m.nsMeta[ns.slot]
	ns.detached = true
	m.nsCold[ns.slot] = coldSlot{} // the free slot pins no controller
	m.freeSlots = append(m.freeSlots, ns.slot)
	// As in Attach: finish the cache mutation before any recompute. The
	// refcount moves even when syncSuppressed rebuilds the cache below:
	// the rebuild resets only the tops still in order, so the entry of a
	// top whose last namespace this was must already be untracked.
	id := topOf(cg).ID()
	te := &m.byID[id]
	te.refs--
	last := te.refs <= 0
	if last {
		// Last namespace under this entity: its shares leave Σw_j.
		m.totalTop -= te.shares
		te.refs = 0
	}
	if !m.syncSuppressed() {
		if last {
			m.markAllDirty()
		} else {
			// Detach via cgroup removal shrank the sibling sum;
			// recompute the subtree. For a plain detach this is a no-op
			// recompute.
			m.markBoundsDirty(id)
		}
	}
	m.publishTopo(m.clock.Now())
}

func (m *Monitor) onEvent(e cgroups.Event) {
	switch e.Kind {
	case cgroups.Created:
		// The cgroup list (and hence the snapshot's cgroup section)
		// changed; the observe-phase flush publishes it. No immediate
		// publication: creations arrive in bursts (pods, churn) and
		// coalescing to one snapshot per tick is the §11 contract.
		m.markTopoDirty()
		m.onCreated(e.Cgroup)
	case cgroups.Removed:
		m.markTopoDirty() // the cgroup left the snapshot's cgroup section
		cg := e.Cgroup
		if p := cg.Parent; p != nil {
			// The sum shrinks before Detach runs: a suppression recovery
			// inside it re-reads the sum from the hierarchy, which no
			// longer counts cg.
			m.byID[p.ID()].sum -= m.byID[cg.ID()].shares
		}
		if m.nsOf(cg) != nil {
			m.Detach(cg)
		} else {
			// No namespace to detach, but removing an unattached pod
			// member still shrinks the sibling sum its attached siblings
			// divide by.
			m.queueDilution(cg)
		}
		m.byID[cg.ID()] = cgEntry{}
	case cgroups.CPUChanged:
		// Bounds (and the snapshot's control-file values) may move;
		// mark for the observe-phase flush in every sub-path.
		m.markDirty()
		if !m.syncSuppressed() {
			m.onCPUChanged(e.Cgroup)
		}
	case cgroups.MemChanged:
		m.markDirty()
		// CPU bounds do not read memory limits (UpdateMem reads them
		// live), so beyond cache synchronization there is nothing to do.
		m.syncSuppressed()
	}
}

// onCreated records a new cgroup's inputs and adds its shares to its
// pod's sibling sum. A member of a tracked pod dilutes its attached
// siblings, so the pod is marked.
func (m *Monitor) onCreated(cg *cgroups.Cgroup) {
	e := m.record(cg)
	if p := cg.Parent; p != nil {
		m.byID[p.ID()].sum += e.shares
	}
	m.queueDilution(cg)
}

// queueDilution marks cg's pod when cg is a member of a tracked pod:
// its attached siblings' fractions change with the sibling sum.
func (m *Monitor) queueDilution(cg *cgroups.Cgroup) {
	if top := topOf(cg); top != cg && m.tracked(top.ID()) {
		m.markBoundsDirty(top.ID())
	}
}

// markAllDirty records that every namespace's bounds must be recomputed
// at the next flush (a Σw_j change reaches every container), subsuming
// any finer marks: it drops them, clearing their bits.
func (m *Monitor) markAllDirty() {
	m.boundsDirtyAll = true
	m.dropTopMarks()
}

// dropTopMarks empties dirtyTops and clears the marked bit of every top
// it held. Every path that drops the list goes through here: a bit left
// set would swallow every later mark of its top.
func (m *Monitor) dropTopMarks() {
	for _, top := range m.dirtyTops {
		m.byID[top].marked = false
	}
	m.dirtyTops = m.dirtyTops[:0]
}

// markBoundsDirty queues one top-level subtree, by entity ID, for
// recomputation at the next flush. A top already queued stays where it
// is, so a flush costs O(distinct tops marked) however many events
// touched them.
func (m *Monitor) markBoundsDirty(top int) {
	if m.boundsDirtyAll {
		return
	}
	e := &m.byID[top]
	if e.marked {
		return
	}
	e.marked = true
	m.dirtyTops = append(m.dirtyTops, top)
}

// flush is the read boundary (DESIGN.md §14): it applies every bounds
// mark in one pass, so a whole churn interval's worth of events costs
// one recompute pass instead of one per event. Every read of bounds or
// E_CPU, every update round, staleness scan and snapshot cut calls it
// first. Without marks it is two loads and a branch, small enough to
// inline into the reads programs make every tick.
func (m *Monitor) flush() {
	if m.boundsDirtyAll || len(m.dirtyTops) > 0 {
		m.applyMarks()
	}
}

// applyMarks recomputes the marked bounds and clears the marks. A mark
// may outlive its subtree (detach, removal); its top then recomputes
// nothing.
func (m *Monitor) applyMarks() {
	n := 0
	if m.boundsDirtyAll {
		m.boundsDirtyAll = false
		n = m.recomputeBoundsAll()
	} else {
		for _, top := range m.dirtyTops {
			n += m.recomputeTop(top)
		}
		m.dropTopMarks()
	}
	m.Trace.Add(telemetry.CtrBoundsFlushes, 1)
	m.Trace.Add(telemetry.CtrBoundsRecomputed, uint64(n))
}

// onCPUChanged applies one delivered cpu-limit event: it records cg's
// new inputs, folds a shares change into the sums that count it, and
// marks the affected bounds.
func (m *Monitor) onCPUChanged(cg *cgroups.Cgroup) {
	old := m.entry(cg.ID()).shares
	d := m.record(cg).shares - old
	top := topOf(cg)
	id := top.ID()
	if top != cg {
		m.byID[id].sum += d
	}
	if !m.tracked(id) {
		// No attached namespace anywhere under this entity: its shares
		// are outside Σw_j and no bounds read its inputs.
		return
	}
	if cg == top && d != 0 {
		// Top-level shares moved: the Σw_j denominator changes, so
		// every namespace's fraction does too. The delta lands before
		// the flush so it sees the final Σw_j (the E_CPU clamp is
		// stateful: an intermediate bounds state would be observable).
		m.totalTop += d
		m.markAllDirty()
		return
	}
	// Subtree-local change: the entity's limits cap its members, a
	// nested cgroup's shares enter the sibling sum and its limits cap
	// its own namespace.
	m.markBoundsDirty(id)
}

// syncSuppressed rebuilds the delivered inputs when the hierarchy
// reports suppressed events the monitor never saw: a dropped or delayed
// event means live state moved without a delivery. The full recompute
// lands at the next delivered trigger — the same instant the full-walk
// implementation would silently have absorbed the lost change, which is
// what keeps fault-injection runs byte-identical. Returns true when it
// recomputed (callers skip their incremental step).
func (m *Monitor) syncSuppressed() bool {
	if !m.fullRecompute && m.hier.Suppressed() == m.seenSuppressed {
		return false
	}
	m.FullRecompute()
	return true
}

// FullRecompute re-reads every live cgroup's inputs from the hierarchy,
// rebuilds the share aggregates, and recalculates every namespace's
// bounds, regardless of what was delivered. It is the one path from live
// state to the delivered inputs: the recovery path for suppressed events
// (resync, syncSuppressed) and the reference the differential tests
// compare the incremental path against.
func (m *Monitor) FullRecompute() {
	// Creation order visits a pod, resetting its sum, before its members.
	for _, cg := range m.hier.Cgroups() {
		e := m.record(cg)
		e.sum = 0
		if p := cg.Parent; p != nil {
			m.byID[p.ID()].sum += e.shares
		}
	}
	// Recount only the tracked entries, the tops of order (a cgroup's
	// parent never changes, and Attach and Detach keep refs in step with
	// order even on the paths that land here), so the cost is O(live)
	// however many cgroups were removed.
	for _, s := range m.orderSlots {
		m.byID[m.nsCPU[s].top].refs = 0
	}
	m.totalTop = 0
	for _, s := range m.orderSlots {
		e := &m.byID[m.nsCPU[s].top]
		if e.refs == 0 {
			m.totalTop += e.shares
		}
		e.refs++
	}
	m.dropTopMarks()
	m.boundsDirtyAll = false
	m.seenSuppressed = m.hier.Suppressed()
	n := m.recomputeBoundsAll()
	m.Trace.Add(telemetry.CtrBoundsFlushes, 1)
	m.Trace.Add(telemetry.CtrBoundsRecomputed, uint64(n))
}

// recomputeBoundsAll recalculates every namespace's bounds (Σw_j changes
// reach every container) and returns how many it recomputed.
func (m *Monitor) recomputeBoundsAll() int {
	for _, s := range m.orderSlots {
		m.recomputeSlot(int(s))
	}
	return len(m.orderSlots)
}

// recomputeTop recalculates bounds for the namespaces inside the
// subtree of the top-level entity with ID id — the entity's own
// namespace (a flat container) and any attached children (pod members)
// — and returns how many it recomputed. An entity no longer tracked has
// none.
func (m *Monitor) recomputeTop(id int) int {
	if !m.tracked(id) {
		return 0
	}
	e := &m.byID[id]
	n := 0
	if e.ns != nil {
		m.recomputeSlot(int(e.slot))
		n++
	}
	if int(e.refs) > n {
		// Attached members below a pod: the refcount says the walk finds
		// some, so a flat container never walks.
		for _, c := range e.cg.Children() {
			if id := c.ID(); id < len(m.byID) && m.byID[id].ns != nil {
				m.recomputeSlot(int(m.byID[id].slot))
				n++
			}
		}
	}
	return n
}

// recomputeSlot recalculates one namespace slot's guaranteed share
// fraction and bounds from the delivered inputs alone. For a flat
// container the fraction is w_i/Σw_j over the top-level entities; for a
// container inside a pod it is the pod's fraction times the container's
// fraction among its siblings (all siblings count, attached or not —
// they compete for the pod's grant either way), and the pod's cap bounds
// it too. Σw_j and the sibling sum are int64 sums, so they equal a fresh
// walk exactly and the float expression below is bit-identical to the
// historical full-recompute path.
func (m *Monitor) recomputeSlot(s int) {
	c := &m.nsCPU[s]
	e := &m.byID[c.id]
	upper, frac := int(e.cap), 0.0
	if c.top != c.id {
		pod := &m.byID[c.top]
		upper = min(upper, int(pod.cap))
		if m.totalTop > 0 && pod.sum > 0 {
			frac = float64(pod.shares) / float64(m.totalTop) *
				float64(e.shares) / float64(pod.sum)
		}
	} else if m.totalTop > 0 {
		frac = float64(e.shares) / float64(m.totalTop)
	}
	recomputeBounds(c, upper, m.hier.Scheduler().NCPU(), frac)
}

// Period returns the namespace update interval currently in effect.
func (m *Monitor) Period() time.Duration {
	if m.FixedPeriod > 0 {
		return m.FixedPeriod
	}
	p := m.hier.Scheduler().SchedPeriod()
	if p <= 0 {
		p = 24 * time.Millisecond
	}
	return p
}

// Start arms the periodic update timer. The interval is re-evaluated
// after each firing, since the CFS scheduling period depends on the
// number of runnable tasks.
func (m *Monitor) Start() {
	if m.started {
		return
	}
	m.started = true
	m.lastUpdate = m.clock.Now()
	m.arm()
}

// arm schedules the next round one period from now.
func (m *Monitor) arm() { m.schedule(m.Period()) }

// schedule fires the update timer d from now. The timer (and the m.fire
// method value it calls) is created once and re-armed in place after,
// so a round schedules its successor without allocating.
func (m *Monitor) schedule(d time.Duration) {
	if m.timer == (sim.Timer{}) {
		m.timer = m.clock.After(d, m.fire)
		return
	}
	m.timer.Reset(d)
}

// fire is the periodic timer's callback: it consults the update
// interceptor (if any) and either skips the round, postpones it, or
// runs it now — re-arming for the next period in every case. With no
// interceptor the path is identical to running UpdateAll directly.
func (m *Monitor) fire(now sim.Time) {
	if m.late {
		// A postponed round: the interceptor already ruled on it.
		m.late = false
	} else if m.intercept != nil {
		delay, skip := m.intercept(now)
		if skip {
			m.arm()
			return
		}
		if delay > 0 {
			m.late = true
			m.schedule(delay)
			return
		}
	}
	m.UpdateAll(now)
	// The round is a complete Algorithm 1+2 pass — the canonical §11
	// cut point. Publishing here (not inside UpdateAll) keeps UpdateAll
	// itself allocation-free for direct callers. The timer fires at
	// clock.Now(), so this is Republish's cut.
	m.Republish()
	m.arm()
}

// Tick is the monitor's dense per-tick hook. Updates are driven by the
// periodic timer (armed in the clock's timer queue) and by cgroup
// events, so with no staleness budget configured it is a no-op. With a
// budget, the tick is where bounded-staleness detection runs: any
// namespace whose view age exceeds the budget falls back to the
// conservative view until an update round lands.
func (m *Monitor) Tick(now sim.Time) {
	b := m.staleBudget
	if b <= 0 {
		return
	}
	// The fallback reads LOWER_CPU, so the staleness scan is a flush
	// boundary.
	m.flush()
	for i, s := range m.orderSlots {
		mt := &m.nsMeta[s]
		if mt.degraded || mt.lastAt+sim.Time(b) >= now {
			continue
		}
		ns := m.order[i]
		ns.fallback()
		m.markDirty() // flushed by this tick's observe phase
		m.Trace.Add(telemetry.CtrStaleFallbacks, 1)
		m.Trace.Emit(now, telemetry.KindStaleFallback, ns.cg.Name,
			int64(ns.Age(now)), int64(m.nsCPU[s].eCPU))
	}
}

// UpdateAll runs one Algorithm 1 + Algorithm 2 round for every
// namespace. Exposed so tests and benchmarks can drive updates without
// the timer.
//
// The round works in slot space: it walks orderSlots and reads only the
// slot arrays and each slot's cold pointers, through the slot-level
// Algorithm 1 and 2 functions updateCPU and updateMem. The CPU windows
// are a scheduler-level operation over dense arrays: one settle pass
// over the groups that can hold deferred accrual, then one read per
// namespace by the scheduler index its cold slot caches, so an idle
// namespace costs no cfs.Group load and no settle. Nothing in the loop
// changes memory-controller state, so the host-wide Algorithm 2 inputs
// are read once.
func (m *Monitor) UpdateAll(now sim.Time) {
	// The round reads every namespace's bounds, so it is the canonical
	// flush boundary: deferred event work coalesces here.
	m.flush()
	window := time.Duration(now - m.lastUpdate)
	if window <= 0 {
		window = m.Period()
	}
	m.lastUpdate = now
	// Mark rather than publish: the timer path publishes right after
	// this round (see fire), and direct callers — benchmarks iterating
	// the hot path — must stay allocation-free. A stray direct call is
	// still flushed by the host's observe phase.
	m.markDirty()

	if m.resyncIvl > 0 && now >= m.resyncAt {
		m.resync(now)
	}

	sched := m.hier.Scheduler()
	slack := sched.TakeWindowSlack()
	sched.SettleWindows()
	groups := sched.Groups()
	host := readHostMem(m.hier.Memory())
	windowSec := window.Seconds()
	tr := m.Trace
	tr.Add(telemetry.CtrNSUpdates, uint64(len(m.orderSlots)))
	emit := tr.Enabled()
	var stale uint64
	for _, s := range m.orderSlots {
		mt, c, ms, cold := &m.nsMeta[s], &m.nsCPU[s], &m.nsMem[s], &m.nsCold[s]
		stale = max(stale, uint64(now-mt.lastAt))
		u := sched.TakeWindowAt(cold.cpuIndex(groups))
		updateCPU(c, mt, &m.opts, now, windowSec, u, slack)
		updateMem(ms, cold.mem, &host, &m.opts)
		if emit {
			tr.Emit(now, telemetry.KindNSUpdate, cold.name, int64(c.eCPU), int64(ms.eMem))
		}
	}
	tr.Max(telemetry.CtrStalenessMax, stale)
}

// resync is the retry-with-backoff recovery path for dropped cgroup
// events: it re-derives every namespace's bounds straight from the
// hierarchy and compares them with the cached ones. Drift means a
// limit-change event never arrived — the bounds are repaired (the
// recompute already wrote them) and the retry interval resets to its
// minimum; a clean pass doubles the interval up to the cap.
func (m *Monitor) resync(now sim.Time) {
	type bounds struct{ lower, upper int }
	before := make([]bounds, len(m.orderSlots))
	for i, s := range m.orderSlots {
		c := &m.nsCPU[s]
		before[i] = bounds{c.lowerCPU, c.upperCPU}
	}
	m.FullRecompute()
	drift := false
	for i, s := range m.orderSlots {
		c := &m.nsCPU[s]
		if before[i] != (bounds{c.lowerCPU, c.upperCPU}) {
			drift = true
			break
		}
	}
	m.Trace.Add(telemetry.CtrRecomputeRetries, 1)
	if drift {
		m.resyncIvl = m.resyncMin
	} else {
		m.resyncIvl = min(2*m.resyncIvl, resyncCap*m.resyncMin)
	}
	m.resyncAt = now + sim.Time(m.resyncIvl)
	var d int64
	if drift {
		d = 1
	}
	m.Trace.Emit(now, telemetry.KindResync, "ns_monitor", d, int64(m.resyncIvl))
}
