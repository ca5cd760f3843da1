// Package memctl simulates the Linux memory-management substrate the
// paper's Algorithm 2 is phrased against: a physical page pool with
// min/low/high watermarks, the kswapd background reclaimer (which, under
// memory pressure, reclaims from control groups exceeding their soft
// limits until free memory recovers to the high watermark), direct
// reclaim below the min watermark, per-cgroup hard limits
// (memory.limit_in_bytes) whose violation forces the group to swap its
// own pages, and a finite-bandwidth swap device whose traffic stalls the
// tasks of the faulting group.
package memctl

import (
	"fmt"
	"slices"
	"time"

	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// Controller is the host memory manager.
type Controller struct {
	total units.Bytes
	free  units.Bytes

	// Watermarks on free memory. kswapd starts reclaiming below LowWM
	// and stops at HighWM; below MinWM allocation falls into direct
	// reclaim, which takes pages from any group.
	MinWM, LowWM, HighWM units.Bytes

	swap *SwapDevice

	groups []*Group

	// Trace receives kswapd / direct-reclaim / OOM-kill events and
	// counters. New gives it a ring-less tracer that counts.
	Trace *telemetry.Tracer

	kswapdRuns int // read by Algorithm 2's reclaim-progress check
}

// SwapDevice models a swap disk with finite capacity and bandwidth.
// The device is shared: requests queue behind each other (busyUntil), so
// several thrashing containers each see a fraction of the bandwidth —
// the mechanism behind the Fig. 12(c) collapse of co-located
// overcommitted JVMs.
type SwapDevice struct {
	Capacity  units.Bytes
	Bandwidth units.Bytes // per second
	used      units.Bytes

	busyUntil sim.Time

	swappedOut units.Bytes // cumulative swap-out traffic
}

// Used returns the bytes currently on the swap device.
func (d *SwapDevice) Used() units.Bytes { return d.used }

// TrafficOut returns cumulative swap-out traffic.
func (d *SwapDevice) TrafficOut() units.Bytes { return d.swappedOut }

// Group is the memory controller of one cgroup.
type Group struct {
	Name string
	// HardLimit is memory.limit_in_bytes; 0 means unlimited.
	HardLimit units.Bytes
	// SoftLimit is memory.soft_limit_in_bytes; 0 means unlimited (the
	// group is never preferred by kswapd).
	SoftLimit units.Bytes
	// Hot is the group's actively touched working set (set by the
	// owning runtime, e.g. live data + young generation for a JVM).
	// The kernel's LRU evicts cold pages first, so page faults hit only
	// the hot pages that did not fit in resident memory. Zero means
	// "unknown": the whole footprint is treated as hot.
	Hot units.Bytes

	resident units.Bytes // physical memory charged (usage_in_bytes)
	swapped  units.Bytes // bytes moved to the swap device

	oomKilled bool
	children  int32 // live child groups, so removing a leaf skips the child scan

	// cumulative per-group swap traffic
	swapOut units.Bytes
	swapIn  units.Bytes

	parent  *Group
	subtree units.Bytes // for parents: sum of children's resident memory

	ctl *Controller
}

// SubtreeResident returns the total resident memory of a parent group's
// children (its hierarchical usage).
func (g *Group) SubtreeResident() units.Bytes { return g.subtree }

// Resident returns the group's physical memory usage
// (memory.usage_in_bytes) — the c_mem term of Algorithm 2.
func (g *Group) Resident() units.Bytes { return g.resident }

// Swapped returns the bytes of the group currently on swap.
func (g *Group) Swapped() units.Bytes { return g.swapped }

// Footprint returns resident+swapped, the group's total data.
func (g *Group) Footprint() units.Bytes { return g.resident + g.swapped }

// SwapTraffic returns the group's cumulative swap-out and swap-in bytes.
func (g *Group) SwapTraffic() (out, in units.Bytes) { return g.swapOut, g.swapIn }

// OverSoft returns how far the group's resident memory (subtree
// resident, for a parent) exceeds its soft limit (0 if within, or if no
// soft limit is set).
func (g *Group) OverSoft() units.Bytes {
	usage := g.resident
	if g.subtree > 0 {
		usage = g.subtree
	}
	if g.SoftLimit <= 0 || usage <= g.SoftLimit {
		return 0
	}
	return usage - g.SoftLimit
}

// Config configures a Controller.
type Config struct {
	Total units.Bytes
	// Swap device; zero values select 16 GiB capacity (a typical
	// server swap partition) at 150 MiB/s (SATA disk, as on the
	// paper's testbed).
	SwapCapacity  units.Bytes
	SwapBandwidth units.Bytes
	// Watermarks; zero values select min=Total/256 (at least 64 MiB),
	// low=1.25*min, high=1.5*min, mirroring Linux's defaults in spirit.
	MinWM, LowWM, HighWM units.Bytes
}

// New returns a Controller for a host with the given configuration.
func New(cfg Config) *Controller {
	if cfg.Total <= 0 {
		panic(fmt.Sprintf("memctl: non-positive total memory %d", cfg.Total))
	}
	min := cfg.MinWM
	if min == 0 {
		min = cfg.Total / 256
		if min < 64*units.MiB {
			min = 64 * units.MiB
		}
	}
	low := cfg.LowWM
	if low == 0 {
		low = min + min/4
	}
	high := cfg.HighWM
	if high == 0 {
		high = min + min/2
	}
	swapCap := cfg.SwapCapacity
	if swapCap == 0 {
		swapCap = 16 * units.GiB
	}
	swapBW := cfg.SwapBandwidth
	if swapBW == 0 {
		swapBW = 150 * units.MiB
	}
	return &Controller{
		Trace:  new(telemetry.Tracer),
		total:  cfg.Total,
		free:   cfg.Total,
		MinWM:  min,
		LowWM:  low,
		HighWM: high,
		swap:   &SwapDevice{Capacity: swapCap, Bandwidth: swapBW},
	}
}

// Total returns the host physical memory size.
func (c *Controller) Total() units.Bytes { return c.total }

// Free returns the current free physical memory — the c_free term of
// Algorithm 2.
func (c *Controller) Free() units.Bytes { return c.free }

// Swap returns the swap device.
func (c *Controller) Swap() *SwapDevice { return c.swap }

// KswapdRuns returns how many times kswapd has run.
func (c *Controller) KswapdRuns() int { return c.kswapdRuns }

// NewGroup registers a top-level memory control group.
func (c *Controller) NewGroup(name string) *Group {
	g := &Group{Name: name, ctl: c}
	c.groups = append(c.groups, g)
	return g
}

// NewChildGroup registers a group nested under parent (one level). The
// parent's hard limit caps the subtree's aggregate resident memory, and
// its soft limit marks the subtree reclaimable under pressure, as in a
// hierarchical cgroup.
func (c *Controller) NewChildGroup(parent *Group, name string) *Group {
	if parent.parent != nil {
		panic("memctl: nesting deeper than one level is not supported")
	}
	g := &Group{Name: name, ctl: c, parent: parent}
	parent.children++
	c.groups = append(c.groups, g)
	return g
}

// addResident adjusts a group's resident memory and the parent's
// subtree aggregate.
func (c *Controller) addResident(g *Group, delta units.Bytes) {
	g.resident += delta
	if g.parent != nil {
		g.parent.subtree += delta
	}
	c.free -= delta
}

// RemoveGroup releases all of the group's memory and unregisters it
// (children first, in creation order, for a parent). A group without
// children, the common case, neither copies nor scans the group list
// for them.
func (c *Controller) RemoveGroup(g *Group) {
	if g.children > 0 {
		for _, x := range append([]*Group(nil), c.groups...) {
			if x.parent == g {
				c.RemoveGroup(x)
			}
		}
	}
	c.addResident(g, -g.resident)
	c.swap.used -= g.swapped
	g.swapped = 0
	for i, x := range c.groups {
		if x == g {
			c.groups = slices.Delete(c.groups, i, i+1)
			if g.parent != nil {
				g.parent.children--
			}
			break
		}
	}
}

// Charge allocates n bytes of resident memory to g at virtual time now.
// It enforces the hard limit (forcing the group to swap out its own
// pages), wakes kswapd when free memory falls below the low watermark,
// and falls into direct reclaim below the min watermark. It returns the
// stall the group's tasks incur from any swap traffic performed on its
// behalf (including queueing behind other groups' swap I/O), and whether
// the charge succeeded (it fails only if the group was OOM-killed).
func (c *Controller) Charge(g *Group, n units.Bytes, now sim.Time) (stall time.Duration, ok bool) {
	if n < 0 {
		panic("memctl: negative charge")
	}
	if g.oomKilled {
		return 0, false
	}
	var traffic units.Bytes

	// Host watermarks: free memory must absorb the allocation.
	if c.free-n < c.LowWM {
		traffic += c.kswapd(n, now)
	}
	if c.free-n < c.MinWM {
		t, oom := c.directReclaim(g, n, now)
		traffic += t
		if oom {
			c.oomKill(g, now)
			return c.stall(traffic, now), false
		}
	}

	c.addResident(g, n)
	if c.free < 0 {
		// Should not happen: reclaim keeps free above MinWM or OOMs.
		panic("memctl: free memory underflow")
	}

	// Per-cgroup hard limit: pages are charged first and the cgroup
	// then reclaims (swaps) its own pages back under the limit, as the
	// kernel's per-page charge path does.
	if g.HardLimit > 0 && g.resident > g.HardLimit {
		moved, oom := c.swapOut(g, g.resident-g.HardLimit)
		traffic += moved
		if oom {
			c.oomKill(g, now)
			return c.stall(traffic, now), false
		}
	}
	// Hierarchical hard limit: the parent's limit caps the subtree; the
	// charging child pays the reclaim.
	if p := g.parent; p != nil && p.HardLimit > 0 && p.subtree > p.HardLimit {
		moved, oom := c.swapOut(g, p.subtree-p.HardLimit)
		traffic += moved
		if oom {
			c.oomKill(g, now)
			return c.stall(traffic, now), false
		}
	}
	return c.stall(traffic, now), true
}

// Uncharge releases n bytes from g, preferring resident pages and then
// swapped pages (e.g. a JVM uncommitting heap).
func (c *Controller) Uncharge(g *Group, n units.Bytes) {
	if n < 0 {
		panic("memctl: negative uncharge")
	}
	fromRes := units.MinBytes(n, g.resident)
	c.addResident(g, -fromRes)
	rest := n - fromRes
	if rest > 0 {
		fromSwap := units.MinBytes(rest, g.swapped)
		g.swapped -= fromSwap
		c.swap.used -= fromSwap
	}
}

// Touch simulates the group's tasks accessing n bytes of its hot data
// at virtual time now. The kernel's LRU keeps hot pages resident where
// possible, so only the part of the hot set that spilled to swap faults:
// a touch of n bytes faults n * swappedHot/hot bytes, which must be
// swapped in (possibly pushing other pages out — thrashing). The
// returned stall is the I/O time the faulting tasks lose.
func (c *Controller) Touch(g *Group, n units.Bytes, now sim.Time) (stall time.Duration) {
	if n <= 0 || g.swapped == 0 || g.oomKilled {
		return 0
	}
	hot := g.Hot
	foot := g.Footprint()
	if hot <= 0 || hot > foot {
		hot = foot
	}
	if hot == 0 {
		return 0
	}
	// Cold pages absorb swap first; only the hot remainder faults.
	swappedHot := g.swapped - (foot - hot)
	if swappedHot <= 0 {
		return 0
	}
	faulted := units.Bytes(float64(n) * float64(swappedHot) / float64(hot))
	if faulted > swappedHot {
		faulted = swappedHot
	}
	if faulted == 0 {
		return 0
	}
	var traffic units.Bytes
	// Swap-in needs free pages; this may push the same group's (or
	// others') pages out again.
	g.swapped -= faulted
	c.swap.used -= faulted
	g.swapIn += faulted
	traffic += faulted
	st, ok := c.Charge(g, faulted, now)
	if !ok {
		return st
	}
	return st + c.stall(traffic, now)
}

// kswapd reclaims from groups whose resident memory exceeds their soft
// limit until free memory (after an imminent allocation of need bytes)
// recovers to the high watermark, or no eligible pages remain. It returns
// the swap-out traffic generated.
func (c *Controller) kswapd(need units.Bytes, now sim.Time) units.Bytes {
	c.kswapdRuns++
	c.Trace.Add(telemetry.CtrKswapdRuns, 1)
	var traffic units.Bytes
	for c.free-need < c.HighWM {
		victim := c.maxOverSoft()
		if victim == nil {
			break
		}
		want := c.HighWM - (c.free - need)
		take := units.MinBytes(want, victim.OverSoft())
		if victim.subtree > 0 {
			// Hierarchical soft limit: reclaim from the subtree's
			// largest child.
			victim = c.maxResidentChild(victim)
			if victim == nil {
				break
			}
		}
		moved, oom := c.swapOut(victim, take)
		traffic += moved
		if oom || moved == 0 {
			break
		}
	}
	c.Trace.Emit(now, telemetry.KindKswapd, "kswapd", int64(traffic), int64(c.free))
	return traffic
}

// directReclaim indiscriminately swaps out pages from the largest groups
// (including those under their soft limits) until free memory can absorb
// the allocation with MinWM intact. It reports OOM if swap is exhausted.
func (c *Controller) directReclaim(requester *Group, need units.Bytes, now sim.Time) (units.Bytes, bool) {
	c.Trace.Add(telemetry.CtrDirectReclaims, 1)
	traffic, exhausted := c.directReclaimLoop(need)
	c.Trace.Emit(now, telemetry.KindDirectReclaim, requester.Name, int64(traffic), int64(c.free))
	return traffic, exhausted
}

func (c *Controller) directReclaimLoop(need units.Bytes) (units.Bytes, bool) {
	var traffic units.Bytes
	for c.free-need < c.MinWM {
		victim := c.maxResident()
		if victim == nil || victim.resident == 0 {
			return traffic, true
		}
		want := c.MinWM - (c.free - need)
		take := units.MinBytes(want, victim.resident)
		moved, oom := c.swapOut(victim, take)
		traffic += moved
		if oom {
			return traffic, true
		}
		if moved == 0 {
			return traffic, true
		}
	}
	return traffic, false
}

// swapOut moves up to n bytes of g's resident pages to the swap device.
// It reports the bytes moved and whether the swap device is exhausted.
func (c *Controller) swapOut(g *Group, n units.Bytes) (units.Bytes, bool) {
	n = units.MinBytes(n, g.resident)
	if n <= 0 {
		return 0, false
	}
	room := c.swap.Capacity - c.swap.used
	oom := false
	if n > room {
		n = room
		oom = true
	}
	c.addResident(g, -n)
	g.swapped += n
	c.swap.used += n
	g.swapOut += n
	c.swap.swappedOut += n
	return n, oom
}

func (c *Controller) oomKill(g *Group, now sim.Time) {
	c.Trace.Add(telemetry.CtrOOMKills, 1)
	c.Trace.Emit(now, telemetry.KindOOMKill, g.Name, int64(g.resident), int64(g.swapped))
	g.oomKilled = true
	// The kernel frees everything the victim held.
	c.addResident(g, -g.resident)
	c.swap.used -= g.swapped
	g.swapped = 0
}

// maxOverSoft picks kswapd's victim: the group with the largest
// soft-limit excess, the earlier-created one on a tie.
func (c *Controller) maxOverSoft() *Group {
	var best *Group
	var bestOver units.Bytes
	for _, g := range c.groups {
		if o := g.OverSoft(); o > bestOver {
			best, bestOver = g, o
		}
	}
	return best
}

func (c *Controller) maxResidentChild(parent *Group) *Group {
	var best *Group
	for _, g := range c.groups {
		if g.parent != parent {
			continue
		}
		if best == nil || g.resident > best.resident {
			best = g
		}
	}
	if best != nil && best.resident == 0 {
		return nil
	}
	return best
}

func (c *Controller) maxResident() *Group {
	var best *Group
	for _, g := range c.groups {
		if best == nil || g.resident > best.resident {
			best = g
		}
	}
	if best != nil && best.resident == 0 {
		return nil
	}
	return best
}

// stall converts swap traffic to I/O wait, queueing behind whatever the
// shared device is already serving.
func (c *Controller) stall(traffic units.Bytes, now sim.Time) time.Duration {
	if traffic <= 0 {
		return 0
	}
	xfer := time.Duration(float64(traffic) / float64(c.swap.Bandwidth) * float64(time.Second))
	wait := time.Duration(0)
	if c.swap.busyUntil > now {
		wait = time.Duration(c.swap.busyUntil - now)
	}
	c.swap.busyUntil = now + wait + xfer
	return wait + xfer
}
