// Package sysns implements the paper's central contribution: the
// per-container sys_namespace that maintains the *effective* CPU and
// memory capacity of a container (Algorithms 1 and 2 of the paper), plus
// the system-wide ns_monitor that keeps namespace bounds in sync with
// cgroup changes.
//
// Effective CPU is exported as a discrete CPU count whose aggregate
// capacity equals the CPU time the container can actually use given its
// share, limit, affinity, and the real-time usage of co-located
// containers. Effective memory reflects the container's soft limit,
// expanded toward the hard limit while the host has free memory, and
// reset to the soft limit whenever kswapd is reclaiming.
package sysns

import (
	"math"
	"time"

	"arv/internal/cfs"
	"arv/internal/cgroups"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/units"
)

// Tunables of the two algorithms, as published.
const (
	// UtilThreshold is UTIL_THRSHD of Algorithm 1: effective CPU grows
	// only when the container used more than this fraction of its
	// current effective capacity during the last update period.
	UtilThreshold = 0.95
	// MemUtilThreshold is the Algorithm 2 analogue: effective memory
	// grows only when the container uses more than this fraction of it.
	MemUtilThreshold = 0.90
	// MemStepFrac is the Algorithm 2 expansion increment: 10% of the
	// remaining headroom toward the hard limit.
	MemStepFrac = 0.10
	// CPUStep bounds the per-update change of effective CPU ("changes
	// to effective CPU are limited to 1 per update to prevent abrupt
	// fluctuations").
	CPUStep = 1
)

// Options tune a SysNamespace away from the paper's published constants.
// The zero value selects the published behaviour; it is what every
// experiment other than the ablations uses.
type Options struct {
	// UtilThreshold overrides UtilThreshold when non-zero.
	UtilThreshold float64
	// MemStepFrac overrides MemStepFrac when non-zero.
	MemStepFrac float64
	// CPUStep overrides CPUStep when non-zero.
	CPUStep int
	// DisableGrowth pins effective CPU at its lower bound and effective
	// memory at the soft limit (the "static" ablation, which is what
	// JDK 10's share-based heuristic effectively computes).
	DisableGrowth bool
}

func (o Options) utilThreshold() float64 {
	if o.UtilThreshold > 0 {
		return o.UtilThreshold
	}
	return UtilThreshold
}

func (o Options) memStepFrac() float64 {
	if o.MemStepFrac > 0 {
		return o.MemStepFrac
	}
	return MemStepFrac
}

func (o Options) cpuStep() int {
	if o.CPUStep > 0 {
		return o.CPUStep
	}
	return CPUStep
}

// cpuSlot is the Algorithm 1 field group of one namespace slot: the
// effective CPU and its bounds, written by every bounds recompute and
// every CPU update round, and the cgroup IDs of the container and its
// top-level entity (the container itself, or its pod), where a bounds
// recompute finds its inputs in the monitor's byID table. Keeping the
// group contiguous per slot makes the monitor's O(n) bounds passes walk
// one dense array.
type cpuSlot struct {
	eCPU     int
	lowerCPU int
	upperCPU int
	id, top  int32
}

// memSlot is the Algorithm 2 field group: the effective memory and the
// previous round's inputs (p_free, p_mem, and the kswapd run count).
type memSlot struct {
	eMem       units.Bytes
	prevFree   units.Bytes
	prevUsage  units.Bytes
	prevKswapd int
	havePrev   bool
}

// metaSlot is the update-metadata field group: round counting, staleness
// tracking, and the degraded-fallback flag.
type metaSlot struct {
	updates  uint64
	lastAt   sim.Time
	degraded bool
}

// SysNamespace holds one container's effective-resource view. It is a
// handle: the hot per-view state — bounds, E_CPU, E_MEM, the Algorithm 2
// history, update metadata — lives in slot-indexed parallel arrays owned
// by the Monitor (struct-of-arrays, split by access pattern; DESIGN.md
// §14), so the monitor's O(n) passes over all views walk dense memory
// instead of chasing one heap object per container. Slots are
// index-stable for the namespace's lifetime; Detach freezes the slot
// state into the handle before recycling it, so late readers (post-run
// summaries over killed containers) keep seeing the last live values.
type SysNamespace struct {
	cg   *cgroups.Cgroup
	mon  *Monitor
	slot int

	// OwnerPID is the PID of the task owning the namespace. Ownership
	// starts at the container's bootstrap init process and is
	// transferred to the post-exec init when the original init dies
	// (§3.2); see internal/container.
	OwnerPID int

	detached bool

	// Frozen copies of the slot state, written once at Detach.
	finalCPU  cpuSlot
	finalMem  memSlot
	finalMeta metaSlot
}

// slotCPU returns the namespace's Algorithm 1 state: its monitor slot
// while attached, the frozen copy afterwards.
func (ns *SysNamespace) slotCPU() *cpuSlot {
	if ns.detached {
		return &ns.finalCPU
	}
	return &ns.mon.nsCPU[ns.slot]
}

// slotMem returns the namespace's Algorithm 2 state.
func (ns *SysNamespace) slotMem() *memSlot {
	if ns.detached {
		return &ns.finalMem
	}
	return &ns.mon.nsMem[ns.slot]
}

// slotMeta returns the namespace's update metadata.
func (ns *SysNamespace) slotMeta() *metaSlot {
	if ns.detached {
		return &ns.finalMeta
	}
	return &ns.mon.nsMeta[ns.slot]
}

// Cgroup returns the control group this namespace describes.
func (ns *SysNamespace) Cgroup() *cgroups.Cgroup { return ns.cg }

// EffectiveCPU returns E_CPU: the number of dedicated-CPU equivalents
// currently available to the container. The read is a flush boundary:
// any deferred bounds marks are applied first, so callers never observe
// pre-coalesce values.
func (ns *SysNamespace) EffectiveCPU() int {
	ns.mon.flush()
	return ns.slotCPU().eCPU
}

// EffectiveMemory returns E_MEM.
func (ns *SysNamespace) EffectiveMemory() units.Bytes { return ns.slotMem().eMem }

// CPUBounds returns the current [LOWER_CPU, UPPER_CPU] range. Like
// EffectiveCPU, the read is a flush boundary.
func (ns *SysNamespace) CPUBounds() (lower, upper int) {
	ns.mon.flush()
	c := ns.slotCPU()
	return c.lowerCPU, c.upperCPU
}

// Age returns the virtual-time age of the view: how long ago the last
// Algorithm 1 round ran (or, before the first round, how long ago the
// namespace was attached).
func (ns *SysNamespace) Age(now sim.Time) time.Duration {
	return time.Duration(now - ns.slotMeta().lastAt)
}

// fallback engages the conservative view: the guaranteed CPU lower
// bound and the guaranteed (soft-limit) memory — the values the
// container holds regardless of what happened since the view went
// stale. The next successful update round clears it.
func (ns *SysNamespace) fallback() {
	c := ns.slotCPU()
	c.eCPU = c.lowerCPU
	ns.slotMem().eMem = softMem(ns.cg.Mem, ns.mon.hier.Memory().Total())
	ns.slotMeta().degraded = true
}

// hardMem returns g's hard limit with "unlimited" resolved to host RAM.
func hardMem(g *memctl.Group, total units.Bytes) units.Bytes {
	if h := g.HardLimit; h > 0 {
		return h
	}
	return total
}

// softMem returns g's soft limit with "unlimited" resolved to the hard
// limit (a container with no soft limit has nothing reclaimable, so its
// guaranteed memory is its hard limit).
func softMem(g *memctl.Group, total units.Bytes) units.Bytes {
	if s := g.SoftLimit; s > 0 {
		return s
	}
	return hardMem(g, total)
}

// limitCPUs returns g's bandwidth limit l/t as a whole CPU count of at
// least 1, or p when g is unlimited.
func limitCPUs(g *cfs.Group, p int) int {
	lim := g.CPULimit() // l / t, in CPUs
	if math.IsInf(lim, 1) {
		return p
	}
	n := int(math.Floor(lim + 1e-9))
	if n < 1 {
		n = 1
	}
	return n
}

// capCPUs returns the CPU count g's own settings allow: its limit l/t,
// the host's p CPUs and its affinity |M|, whichever is least. The
// monitor records it when g's events are delivered.
func capCPUs(g *cfs.Group, p int) int {
	n := min(limitCPUs(g, p), p)
	if mask := g.CpusetN; mask > 0 {
		n = min(n, mask)
	}
	return n
}

// recomputeBounds recalculates LOWER_CPU and UPPER_CPU (Algorithm 1,
// lines 4-5) of one slot and clamps E_CPU into the new range. upper is
// the least cap of the container and its enclosing cgroup (limit l/t,
// affinity |M|, the host's p CPUs); shareFrac is its guaranteed share
// fraction of the host (w_i/Σw_j for flat containers; the product of
// the pod's and the container's fractions for nested ones — ns_monitor
// computes both).
func recomputeBounds(c *cpuSlot, upper, p int, shareFrac float64) {
	shareCPUs := p
	if shareFrac > 0 {
		shareCPUs = int(math.Ceil(shareFrac * float64(p)))
		if shareCPUs < 1 {
			shareCPUs = 1
		}
	}

	lower := min(upper, shareCPUs)

	c.lowerCPU, c.upperCPU = lower, upper
	if c.eCPU == 0 {
		// Initialisation: E_CPU_i = LOWER_CPU_i (Algorithm 1, line 6).
		c.eCPU = lower
	}
	c.eCPU = units.ClampInt(c.eCPU, lower, upper)
}

// ResetMemory initialises (or re-initialises) effective memory to the
// soft limit (Algorithm 2, lines 3 and 14).
func (ns *SysNamespace) ResetMemory() {
	ns.slotMem().eMem = softMem(ns.cg.Mem, ns.mon.hier.Memory().Total())
}

// updateCPU performs one Algorithm 1 adjustment round over one slot's
// state. windowSec is the update period t in seconds; usage is the
// container's CPU consumption u_i during the window; slack is the
// system-wide unused CPU capacity accumulated during the window
// (p_slack).
func updateCPU(c *cpuSlot, mt *metaSlot, o *Options, now sim.Time, windowSec float64, usage, slack units.CPUSeconds) {
	mt.updates++
	mt.lastAt = now
	mt.degraded = false
	if o.DisableGrowth {
		c.eCPU = c.lowerCPU
		return
	}
	step := o.cpuStep()
	if slack > 0 {
		capacity := float64(c.eCPU) * windowSec
		if capacity > 0 && float64(usage)/capacity > o.utilThreshold() && c.eCPU < c.upperCPU {
			c.eCPU = units.ClampInt(c.eCPU+step, c.lowerCPU, c.upperCPU)
		}
	} else if c.eCPU > c.lowerCPU {
		c.eCPU = units.ClampInt(c.eCPU-step, c.lowerCPU, c.upperCPU)
	}
}

// hostMem is the host-wide input of one Algorithm 2 round: the free
// memory c_free, the kswapd run count, and the controller constants the
// round compares against.
type hostMem struct {
	free          units.Bytes
	kswapd        int
	lowWM, highWM units.Bytes
	total         units.Bytes
}

// readHostMem reads mem's Algorithm 2 inputs.
func readHostMem(mem *memctl.Controller) hostMem {
	return hostMem{free: mem.Free(), kswapd: mem.KswapdRuns(), lowWM: mem.LowWM, highWM: mem.HighWM, total: mem.Total()}
}

// updateMem performs one Algorithm 2 adjustment round over one slot's
// state: g is the container's memory group and host the host-wide
// inputs (current free memory among them). It records the round's
// inputs as p_free/p_mem for the next round after adjustMem on every
// exit path, without a deferred closure (the monitor runs it once per
// namespace per period — its hot path must not allocate).
func updateMem(ms *memSlot, g *memctl.Group, host *hostMem, o *Options) {
	cmem := g.Resident()
	adjustMem(ms, g, host, cmem, o)
	ms.prevFree, ms.prevUsage, ms.havePrev = host.free, cmem, true
	ms.prevKswapd = host.kswapd
}

// adjustMem is Algorithm 2's adjustment logic.
func adjustMem(ms *memSlot, g *memctl.Group, host *hostMem, cmem units.Bytes, o *Options) {
	cfree := host.free
	// "Whenever system memory is in shortage and kswapd is reclaiming
	// memory, reset a container's effective memory to its soft limit":
	// shortage is visible either as free memory below the low watermark
	// right now, or as kswapd activity since the previous update (free
	// memory may already have recovered to the high watermark by the
	// time the timer fires).
	reclaiming := cfree <= host.lowWM || host.kswapd > ms.prevKswapd

	soft := softMem(g, host.total)
	if ms.eMem == 0 {
		ms.eMem = soft
	}
	if o.DisableGrowth {
		ms.eMem = soft
		return
	}

	hard := hardMem(g, host.total)
	if !reclaiming {
		if ms.eMem > 0 && float64(cmem)/float64(ms.eMem) > MemUtilThreshold && ms.eMem < hard {
			delta := units.Bytes(float64(hard-ms.eMem) * o.memStepFrac())
			if delta <= 0 {
				return
			}
			// Predict the system-wide free-memory cost of granting
			// delta, from the previous round's marginal ratio
			// (Algorithm 2, line 8). With no history, or a container
			// that did not grow, assume a 1:1 ratio.
			ratio := 1.0
			if ms.havePrev && cmem > ms.prevUsage {
				ratio = float64(ms.prevFree-cfree) / float64(cmem-ms.prevUsage)
				if ratio < 0 {
					ratio = 0
				}
			}
			predicted := units.Bytes(ratio * float64(delta))
			if cfree-predicted > host.highWM {
				ms.eMem += delta
				if ms.eMem > hard {
					ms.eMem = hard
				}
			}
		}
	} else {
		// Memory shortage: kswapd is (or has been) reclaiming; fall
		// back to the guaranteed soft limit.
		ms.eMem = soft
	}
}
