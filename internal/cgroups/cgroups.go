// Package cgroups models the Linux control-group hierarchy as used by
// container runtimes: every container gets a cgroup whose cpu controller
// (shares, cfs_quota_us/cfs_period_us, cpuset.cpus) is backed by a
// cfs.Group and whose memory controller (limit_in_bytes,
// soft_limit_in_bytes) is backed by a memctl.Group.
//
// The hierarchy publishes change events (creation, removal, limit
// adjustments). The paper's ns_monitor subscribes to exactly these events
// to keep each container's sys_namespace bounds current (§3.2: "We modify
// the source code of cgroups to invoke ns_monitor if a sys_namespace
// exists for a control group and there is a change to the cgroups
// settings").
package cgroups

import (
	"fmt"
	"slices"

	"arv/internal/cfs"
	"arv/internal/memctl"
	"arv/internal/units"
)

// EventKind identifies a hierarchy change.
type EventKind int

const (
	// Created fires after a cgroup is added to the hierarchy.
	Created EventKind = iota
	// Removed fires after a cgroup is deleted.
	Removed
	// CPUChanged fires after shares, quota/period, or cpuset change.
	CPUChanged
	// MemChanged fires after the hard or soft memory limit changes.
	MemChanged
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case Created:
		return "created"
	case Removed:
		return "removed"
	case CPUChanged:
		return "cpu-changed"
	case MemChanged:
		return "mem-changed"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is a hierarchy change notification.
type Event struct {
	Kind   EventKind
	Cgroup *Cgroup
}

// Interceptor vets a limit-change event before it reaches subscribers.
// Returning false suppresses delivery (the interceptor may arrange a
// later Redeliver). Only CPUChanged and MemChanged events are offered
// to the interceptor: lifecycle events (Created, Removed) are always
// delivered, since dropping them would leave subscribers — ns_monitor
// chief among them — holding namespaces for cgroups that no longer
// exist. The fault-injection layer (internal/faults) is the intended
// client.
type Interceptor func(Event) bool

// Hierarchy owns the set of cgroups on a host.
type Hierarchy struct {
	sched *cfs.Scheduler
	mem   *memctl.Controller

	cgroups     []*Cgroup
	byName      map[string]*Cgroup
	subs        []func(Event)
	interceptor Interceptor
	suppressed  uint64
	nextID      int32
}

// NewHierarchy returns an empty hierarchy bound to the host's scheduler
// and memory controller.
func NewHierarchy(sched *cfs.Scheduler, mem *memctl.Controller) *Hierarchy {
	return &Hierarchy{sched: sched, mem: mem, byName: make(map[string]*Cgroup)}
}

// Scheduler returns the scheduler backing the hierarchy.
func (h *Hierarchy) Scheduler() *cfs.Scheduler { return h.sched }

// Memory returns the memory controller backing the hierarchy.
func (h *Hierarchy) Memory() *memctl.Controller { return h.mem }

// Subscribe registers fn to receive all future events.
func (h *Hierarchy) Subscribe(fn func(Event)) { h.subs = append(h.subs, fn) }

// Intercept installs fn as the hierarchy's event interceptor (nil
// removes it). At most one interceptor is active at a time.
func (h *Hierarchy) Intercept(fn Interceptor) { h.interceptor = fn }

// Redeliver publishes e to all subscribers, bypassing the interceptor.
// It is how an interceptor that deferred an event eventually hands it
// over.
func (h *Hierarchy) Redeliver(e Event) {
	for _, fn := range h.subs {
		fn(e)
	}
}

// Suppressed returns a monotone count of limit-change events an
// interceptor kept from subscribers (dropped, or deferred for a later
// Redeliver). Subscribers that cache hierarchy-derived state — the
// monitor's incremental share aggregates — compare it against the value
// they last synchronized at: a difference means the hierarchy mutated
// without them seeing the event, so the cache must be rebuilt from live
// state before it is trusted again.
func (h *Hierarchy) Suppressed() uint64 { return h.suppressed }

func (h *Hierarchy) publish(e Event) {
	if h.interceptor != nil && (e.Kind == CPUChanged || e.Kind == MemChanged) {
		if !h.interceptor(e) {
			h.suppressed++
			return
		}
	}
	for _, fn := range h.subs {
		fn(e)
	}
}

// Cgroups returns the live cgroups in creation order.
func (h *Hierarchy) Cgroups() []*Cgroup { return h.cgroups }

// Lookup returns the cgroup with the given name, or nil. The name index
// is a map, so per-firing lookups on the fault injector's churn path
// stay O(1) at thousand-container scale.
func (h *Hierarchy) Lookup(name string) *Cgroup {
	return h.byName[name]
}

// newID returns the next cgroup ID. IDs are dense from 0 and never
// reused, so per-cgroup state a subscriber keeps in an ID-indexed slice
// cannot carry over to a cgroup re-created under a removed one's name.
func (h *Hierarchy) newID() int32 {
	id := h.nextID
	h.nextID++
	return id
}

// Create adds a cgroup with default controllers (1024 shares, no quota,
// no cpuset restriction, unlimited memory) and publishes Created.
func (h *Hierarchy) Create(name string) *Cgroup {
	if h.Lookup(name) != nil {
		panic("cgroups: duplicate cgroup " + name)
	}
	cg := &Cgroup{
		Name: name,
		CPU:  h.sched.NewGroup(name),
		Mem:  h.mem.NewGroup(name),
		hier: h,
		id:   h.newID(),
	}
	h.cgroups = append(h.cgroups, cg)
	h.byName[name] = cg
	h.publish(Event{Created, cg})
	return cg
}

// CreateChild adds a cgroup nested under parent (one level) and
// publishes Created. The CPU and memory controllers inherit the
// hierarchical semantics of the substrate: the parent's shares/limits
// govern the subtree, the children compete within it by their own
// shares.
func (h *Hierarchy) CreateChild(parent *Cgroup, name string) *Cgroup {
	if h.Lookup(name) != nil {
		panic("cgroups: duplicate cgroup " + name)
	}
	if parent.removed {
		panic("cgroups: CreateChild under removed cgroup " + parent.Name)
	}
	cg := &Cgroup{
		Name:   name,
		CPU:    h.sched.NewChildGroup(parent.CPU, name),
		Mem:    h.mem.NewChildGroup(parent.Mem, name),
		Parent: parent,
		hier:   h,
		id:     h.newID(),
	}
	parent.children = append(parent.children, cg)
	h.cgroups = append(h.cgroups, cg)
	h.byName[name] = cg
	h.publish(Event{Created, cg})
	return cg
}

// Remove deletes a cgroup (children first), releasing its scheduler
// group and memory, and publishes Removed per cgroup.
func (h *Hierarchy) Remove(cg *Cgroup) {
	for _, c := range append([]*Cgroup(nil), cg.children...) {
		h.Remove(c)
	}
	if cg.Parent != nil {
		for i, x := range cg.Parent.children {
			if x == cg {
				cg.Parent.children = slices.Delete(cg.Parent.children, i, i+1)
				break
			}
		}
	}
	for i, x := range h.cgroups {
		if x == cg {
			h.cgroups = slices.Delete(h.cgroups, i, i+1)
			break
		}
	}
	delete(h.byName, cg.Name)
	h.sched.RemoveGroup(cg.CPU)
	h.mem.RemoveGroup(cg.Mem)
	cg.removed = true
	h.publish(Event{Removed, cg})
}

// Cgroup is one control group: a named pair of cpu and memory
// controllers, optionally nested one level under a parent (the
// Kubernetes pod shape).
type Cgroup struct {
	Name   string
	CPU    *cfs.Group
	Mem    *memctl.Group
	Parent *Cgroup

	children []*Cgroup
	hier     *Hierarchy
	id       int32 // packs with removed: the struct stays in the 80-byte size class
	removed  bool
}

// ID returns the cgroup's hierarchy-unique ID: dense from 0 in creation
// order, never reused after removal.
func (cg *Cgroup) ID() int { return int(cg.id) }

// Children returns the nested cgroups.
func (cg *Cgroup) Children() []*Cgroup { return cg.children }

// Removed reports whether the cgroup has been deleted.
func (cg *Cgroup) Removed() bool { return cg.removed }

// SetShares writes cpu.shares and publishes CPUChanged. The write goes
// through the scheduler so its share aggregates stay consistent.
func (cg *Cgroup) SetShares(shares int64) {
	if shares <= 0 {
		panic("cgroups: non-positive cpu.shares")
	}
	cg.hier.sched.SetShares(cg.CPU, shares)
	cg.hier.publish(Event{CPUChanged, cg})
}

// SetQuota writes cfs_quota_us and cfs_period_us and publishes
// CPUChanged. quotaUS < 0 removes the bandwidth limit.
func (cg *Cgroup) SetQuota(quotaUS, periodUS int64) {
	if periodUS <= 0 {
		panic("cgroups: non-positive cfs_period_us")
	}
	cg.hier.sched.SetQuota(cg.CPU, quotaUS, periodUS)
	cg.hier.publish(Event{CPUChanged, cg})
}

// SetQuotaCPUs is a convenience wrapper setting the bandwidth limit to n
// CPUs with the default 100 ms period.
func (cg *Cgroup) SetQuotaCPUs(n float64) {
	cg.SetQuota(int64(n*100_000), 100_000)
}

// SetCpuset restricts the group to n CPUs (0 removes the restriction)
// and publishes CPUChanged. The model tracks the mask's cardinality, not
// its identity: Algorithm 1 only consumes |M_i|.
func (cg *Cgroup) SetCpuset(n int) {
	if n < 0 || n > cg.hier.sched.NCPU() {
		panic(fmt.Sprintf("cgroups: cpuset size %d out of range", n))
	}
	cg.hier.sched.SetCpuset(cg.CPU, n)
	cg.hier.publish(Event{CPUChanged, cg})
}

// SetMemLimits writes memory.limit_in_bytes (hard) and
// memory.soft_limit_in_bytes (soft) and publishes MemChanged. Zero means
// unlimited.
func (cg *Cgroup) SetMemLimits(hard, soft units.Bytes) {
	if hard < 0 || soft < 0 {
		panic("cgroups: negative memory limit")
	}
	cg.Mem.HardLimit = hard
	cg.Mem.SoftLimit = soft
	cg.hier.publish(Event{MemChanged, cg})
}
