package jvm

import (
	"fmt"
	"math"

	"arv/internal/container"
	"arv/internal/units"
)

// PolicyKind selects how the JVM sizes its GC thread pool and default
// heap, mirroring the configurations the paper evaluates.
type PolicyKind int

const (
	// Vanilla8 is JDK 8 with static GC threads: the pool is sized from
	// the host's online CPUs and every GC wakes the whole pool.
	Vanilla8 PolicyKind = iota
	// Dynamic8 is JDK 8 with -XX:+UseDynamicNumberOfGCThreads: the pool
	// is sized as Vanilla8 but each GC activates a subset based on the
	// mutator count and heap size.
	Dynamic8
	// JDK9 detects the container's static CPU limit (cpuset, else
	// quota/period) at launch and sizes the pool from it; the heap
	// defaults to a quarter of the hard memory limit.
	JDK9
	// JDK10 additionally derives a core count from cpu.shares (the
	// static variant of Algorithm 1 line 4) — but never re-evaluates it.
	JDK10
	// Adaptive is the paper's JVM: the pool is created from the host's
	// online CPUs (retaining expansion potential), and every GC reads
	// E_CPU from the container's sys_namespace:
	// N_gc = min(N, N_active, E_CPU).
	Adaptive
	// OptFixed is the hand-optimized oracle used in Fig. 2a: a fixed
	// thread count supplied in Config.OptGCThreads.
	OptFixed
	// Transparent is an *unmodified* JDK 8 running on the patched
	// kernel: its launch-time probes (online CPUs, physical memory) are
	// answered by the virtual sysfs, so the pool and heap are sized
	// from the effective resources at launch — but, with no source
	// changes, nothing re-adjusts afterwards ("a virtual sysfs
	// interface to seamlessly connect with user space applications
	// without requiring any source code changes", §6).
	Transparent
)

// String returns the policy name used in the paper's figures.
func (p PolicyKind) String() string {
	switch p {
	case Vanilla8:
		return "vanilla"
	case Dynamic8:
		return "dynamic"
	case JDK9:
		return "jvm9"
	case JDK10:
		return "jvm10"
	case Adaptive:
		return "adaptive"
	case OptFixed:
		return "opt"
	case Transparent:
		return "transparent"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(p))
	}
}

// dynamicThreads reports whether the policy activates a per-GC subset of
// the pool (HotSpot's dynamic GC threads heuristic).
func (p PolicyKind) dynamicThreads() bool {
	switch p {
	case Dynamic8, JDK9, JDK10, Adaptive:
		return true
	default:
		return false
	}
}

// NJITThreads is HotSpot's CICompilerCount ergonomic (tiered
// compilation, simplified): log2 of the CPU count, at least 2.
func NJITThreads(ncpu int) int {
	n := 2
	for v := 4; v <= ncpu; v *= 2 {
		n++
	}
	if n < 2 {
		n = 2
	}
	return n
}

// NParallelGCThreads is HotSpot's ParallelGCThreads ergonomic: ncpus up
// to 8, then 8 + 5/8 of the excess.
func NParallelGCThreads(ncpu int) int {
	if ncpu <= 0 {
		return 1
	}
	if ncpu <= 8 {
		return ncpu
	}
	return 8 + int(math.Ceil(float64(ncpu-8)*5.0/8.0))
}

// launchCPUs returns the CPU count the policy perceives at JVM launch,
// from which the GC thread pool is sized.
func launchCPUs(p PolicyKind, ctr *container.Container, hostCPUs int) int {
	switch p {
	case Transparent:
		// sysconf(_SC_NPROCESSORS_ONLN) through the virtual sysfs.
		return ctr.View().OnlineCPUs()
	case Vanilla8, Dynamic8, Adaptive, OptFixed:
		// Probes the (unredirected) kernel: all online CPUs. The
		// adaptive JVM deliberately does the same, "retaining the
		// potential to expand the JVM with more CPUs" (§4.1).
		return hostCPUs
	case JDK9:
		return ctr.Cgroup.CPU.StaticCPUs(hostCPUs)
	case JDK10:
		n := ctr.Cgroup.CPU.StaticCPUs(hostCPUs)
		if lower, _ := ctr.NS.CPUBounds(); lower < n {
			// Share-derived static core count (Algorithm 1 line 4,
			// evaluated once).
			n = lower
		}
		return n
	default:
		return hostCPUs
	}
}

// autoMaxHeap returns the default maximum heap size (no -Xmx): a quarter
// of the "physical memory" the policy perceives — host RAM for JDK 8,
// the container hard limit for JDK 9/10 (§2.2), the effective memory at
// launch for an unmodified JVM on the patched kernel.
func autoMaxHeap(p PolicyKind, ctr *container.Container, hostMem units.Bytes) units.Bytes {
	base := hostMem
	switch p {
	case JDK9, JDK10, Adaptive:
		if h := ctr.Cgroup.Mem.HardLimit; h > 0 {
			base = h
		}
	case Transparent:
		base = ctr.View().TotalMemory()
	}
	return base / 4
}

// activeWorkers is HotSpot's dynamic GC threads heuristic
// (AdaptiveSizePolicy::calc_default_active_workers, simplified): bounded
// by twice the mutator count and by one worker per 24 MiB of heap
// capacity, so small heaps do not pay for a wide pool ("it imposes a
// minimum amount of work for a GC thread to process", §5.2).
func activeWorkers(pool, mutators int, heapCommitted units.Bytes) int {
	byHeap := int(heapCommitted/(24*units.MiB)) + 1
	n := pool
	if m := 2 * mutators; m < n {
		n = m
	}
	if byHeap < n {
		n = byHeap
	}
	if n < 1 {
		n = 1
	}
	return n
}
