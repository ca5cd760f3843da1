package sysfs

import (
	"fmt"
	"math"
	"strings"

	"arv/internal/sysns"
	"arv/internal/units"
)

// This file is the snapshot-backed read path (DESIGN.md §11): View
// implementations that resolve every probe against an immutable
// sysns.ViewSnapshot instead of live simulation state. They are pure
// functions over the frozen structs — no locks, no access to the
// scheduler or memory controller — so any number of goroutines can
// serve reads while the simulation advances.

// SnapView answers a container's resource probes from a published
// snapshot, rendering the same values NSView reads live.
type SnapView struct {
	// C is the container's frozen view; Host the snapshot's host info
	// (loadavg is host-wide, as in NSView).
	C    *sysns.ContainerView
	Host *sysns.HostInfo
}

// OnlineCPUs returns the container's effective CPU count.
func (v SnapView) OnlineCPUs() int { return v.C.EffectiveCPU }

// TotalMemory returns the container's effective memory.
func (v SnapView) TotalMemory() units.Bytes { return v.C.EffectiveMemory }

// freeMemory returns effective memory minus resident, clamped at zero —
// NSView's formula over frozen inputs.
func (v SnapView) freeMemory() units.Bytes { return max(v.C.EffectiveMemory-v.C.Resident, 0) }

// Sysconf implements View over the frozen container view.
func (v SnapView) Sysconf(name Sysconf) (int64, error) { return sysconf(v, name) }

// ReadFile implements View over the frozen container view.
func (v SnapView) ReadFile(path string) (string, error) {
	return renderFile(path, v.C.EffectiveCPU, v.C.EffectiveMemory, v.freeMemory(), v.Host.LoadAvg)
}

// SnapHostView answers host-level probes from a published snapshot,
// rendering the same values HostView reads live.
type SnapHostView struct {
	// H is the snapshot's frozen host info.
	H *sysns.HostInfo
}

// OnlineCPUs returns the host CPU count.
func (v SnapHostView) OnlineCPUs() int { return v.H.NCPU }

// TotalMemory returns the host physical memory size.
func (v SnapHostView) TotalMemory() units.Bytes { return v.H.TotalMemory }

// freeMemory returns the host's free memory at publication time.
func (v SnapHostView) freeMemory() units.Bytes { return v.H.FreeMemory }

// Sysconf implements View over the frozen host info.
func (v SnapHostView) Sysconf(name Sysconf) (int64, error) { return sysconf(v, name) }

// ReadFile implements View over the frozen host info.
func (v SnapHostView) ReadFile(path string) (string, error) {
	return renderFile(path, v.H.NCPU, v.H.TotalMemory, v.H.FreeMemory, v.H.LoadAvg)
}

// ReadCgroupView renders the administrator-facing control files of a
// cgroup — the `/sys/fs/cgroup/{cpu,cpuset,memory}/<name>/...` interface
// tooling like docker stats and cadvisor reads — from a frozen
// CgroupView. file is the name within the cgroup's directory, e.g.
// "cpu.shares" or "memory.usage_in_bytes". It is the only control-file
// renderer: a live cgroup is rendered through a view cut from it
// (sysns.CgroupView.Cut).
func ReadCgroupView(cg *sysns.CgroupView, file string) (string, error) {
	switch file {
	case "cpu.shares":
		return fmt.Sprintf("%d\n", cg.Shares), nil
	case "cpu.cfs_quota_us":
		return fmt.Sprintf("%d\n", cg.QuotaUS), nil
	case "cpu.cfs_period_us":
		return fmt.Sprintf("%d\n", cg.PeriodUS), nil
	case "cpu.stat":
		return fmt.Sprintf("throttled_time %d\n", cg.ThrottledNS), nil
	case "cpuacct.usage":
		// Cumulative CPU time in nanoseconds, as cpuacct reports.
		return fmt.Sprintf("%d\n", cg.UsageNS), nil
	case "cpuset.cpus":
		return cpuList(cg.CpusetN), nil // unrestricted: empty mask means "all" here
	case "memory.limit_in_bytes":
		if cg.HardLimit <= 0 {
			// The kernel reports PAGE_COUNTER_MAX-ish for "unlimited".
			return fmt.Sprintf("%d\n", int64(math.MaxInt64)), nil
		}
		return fmt.Sprintf("%d\n", int64(cg.HardLimit)), nil
	case "memory.soft_limit_in_bytes":
		if cg.SoftLimit <= 0 {
			return fmt.Sprintf("%d\n", int64(math.MaxInt64)), nil
		}
		return fmt.Sprintf("%d\n", int64(cg.SoftLimit)), nil
	case "memory.usage_in_bytes":
		return fmt.Sprintf("%d\n", int64(cg.Resident)), nil
	case "memory.stat":
		var b strings.Builder
		fmt.Fprintf(&b, "rss %d\n", int64(cg.Resident))
		fmt.Fprintf(&b, "swap %d\n", int64(cg.Swapped))
		fmt.Fprintf(&b, "pswpout %d\n", cg.SwapOut.Pages())
		fmt.Fprintf(&b, "pswpin %d\n", cg.SwapIn.Pages())
		if cg.SubtreeResident > 0 {
			fmt.Fprintf(&b, "hierarchical_rss %d\n", int64(cg.SubtreeResident))
		}
		return b.String(), nil
	case "cgroup.procs":
		// The simulation tracks processes at the container level, not
		// the cgroup level; the file exists but is served by the
		// container runtime. Render empty here.
		return "", nil
	default:
		return "", ErrNoEnt{Path: cg.Name + "/" + file}
	}
}
