// Package container provides a docker-like container runtime over the
// simulated kernel: each container is a cgroup (cpu + memory controllers),
// a set of namespaces including the paper's sys_namespace, and an init
// process whose host PID owns the sys_namespace.
//
// The package reproduces the lifecycle subtlety §3.2 of the paper solves:
// at launch a container gets a bootstrap init process that sets up the
// namespaces and then execs the user command. The original init
// terminates, so the sys_namespace — which the OS must keep updating —
// would be left owned by a dead task. As in the paper's modified execve,
// ownership is transferred to the new init process when the bootstrap
// init reaches TASK_DEAD.
package container

import (
	"fmt"
	"slices"

	"arv/internal/cgroups"
	"arv/internal/sysfs"
	"arv/internal/sysns"
	"arv/internal/units"
)

// Spec describes the resources of a container, i.e. what an administrator
// passes to `docker run`.
type Spec struct {
	Name string

	// CPUShares is cpu.shares (0 selects the 1024 default).
	CPUShares int64
	// CPUQuotaUS / CPUPeriodUS set the bandwidth limit; QuotaUS 0 means
	// unlimited. PeriodUS 0 selects the 100 ms default.
	CPUQuotaUS  int64
	CPUPeriodUS int64
	// CpusetCPUs restricts the container to this many CPUs (0 = all).
	CpusetCPUs int
	// MemHard / MemSoft are memory.limit_in_bytes and
	// memory.soft_limit_in_bytes (0 = unlimited).
	MemHard units.Bytes
	MemSoft units.Bytes
	// Gamma is the oversubscription sensitivity of the container's
	// workload (see internal/cfs).
	Gamma float64

	// ImageSize is the container image's transfer size, used by the
	// cluster layer's migration cost model (transfer time = ImageSize /
	// destination bandwidth). Zero means a negligible image.
	ImageSize units.Bytes
}

// State is a container lifecycle state.
type State int

const (
	// Created: cgroup and namespaces exist; bootstrap init not yet
	// replaced by the user command.
	Created State = iota
	// Running: the user command has been exec'd.
	Running
	// Stopped: the container has been destroyed.
	Stopped
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Running:
		return "running"
	case Stopped:
		return "stopped"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Container is a live container.
type Container struct {
	Spec
	Cgroup *cgroups.Cgroup
	NS     *sysns.SysNamespace

	rt      *Runtime
	state   State
	command string // the exec'd init's command; "" while the bootstrap init runs
}

// State returns the lifecycle state.
func (c *Container) State() State { return c.state }

// Command returns the command the container runs (the current init
// process's), or "app" when no command has been exec'd yet. The faults
// kill/restart path and the cluster migration path use it to re-exec a
// spec-preserving recreation of the container.
func (c *Container) Command() string {
	if c.command != "" {
		return c.command
	}
	return "app"
}

// View returns the container's virtual sysfs view: every resource probe
// issued by the container's processes resolves through this.
func (c *Container) View() sysfs.View { return c.rt.resolver.For(c.NS) }

// PodSpec describes a pod: a parent cgroup whose limits and share govern
// a group of containers collectively, as Kubernetes configures a pod's
// sandbox cgroup.
type PodSpec struct {
	Name string

	// CPUShares is the pod's cpu.shares against other top-level
	// entities (0 selects the 1024 default).
	CPUShares int64
	// CPUQuotaUS / CPUPeriodUS cap the whole pod.
	CPUQuotaUS  int64
	CPUPeriodUS int64
	// CpusetCPUs restricts the pod to this many CPUs (0 = all).
	CpusetCPUs int
	// MemHard / MemSoft cap and guard the pod's aggregate memory.
	MemHard units.Bytes
	MemSoft units.Bytes
}

// Pod is a live pod: a parent cgroup holding member containers.
type Pod struct {
	Spec   PodSpec
	Cgroup *cgroups.Cgroup
}

// Runtime creates and manages containers on one host.
type Runtime struct {
	hier     *cgroups.Hierarchy
	mon      *sysns.Monitor
	resolver *sysfs.Resolver

	nextHostPID int
	containers  []*Container // live containers, in creation order
	byName      map[string]*Container
}

// NewRuntime returns a runtime over the given kernel components. It
// installs itself as ns_monitor's state provider, so published view
// snapshots carry container lifecycle states.
func NewRuntime(hier *cgroups.Hierarchy, mon *sysns.Monitor, resolver *sysfs.Resolver) *Runtime {
	rt := &Runtime{
		hier: hier, mon: mon, resolver: resolver,
		nextHostPID: 1,
		byName:      make(map[string]*Container),
	}
	mon.SetStateProvider(rt.stateOf)
	return rt
}

// stateOf reports the lifecycle state of the container owning the named
// cgroup ("" for cgroups without one); ns_monitor stamps it into
// snapshot container views at publication time.
func (rt *Runtime) stateOf(name string) string {
	if c, ok := rt.byName[name]; ok {
		return c.state.String()
	}
	return ""
}

// Containers returns the live (non-stopped) containers in creation
// order, as a copy the caller may keep across Create and Destroy.
func (rt *Runtime) Containers() []*Container {
	out := make([]*Container, len(rt.containers))
	copy(out, rt.containers)
	return out
}

// CreatePod builds a pod: a parent cgroup with the pod-level limits.
// Containers join it via CreateInPod.
func (rt *Runtime) CreatePod(spec PodSpec) *Pod {
	if spec.Name == "" {
		panic("container: empty pod name")
	}
	cg := rt.hier.Create(spec.Name)
	applyLimits(cg, spec.CPUShares, spec.CPUQuotaUS, spec.CPUPeriodUS, spec.CpusetCPUs, spec.MemHard, spec.MemSoft)
	return &Pod{Spec: spec, Cgroup: cg}
}

// applyLimits writes cpu.shares, the bandwidth limit, the cpuset and the
// memory limits to cg. Zero values keep the cgroup's defaults; a zero
// period reads as 100 ms.
func applyLimits(cg *cgroups.Cgroup, shares, quotaUS, periodUS int64, cpuset int, memHard, memSoft units.Bytes) {
	if shares > 0 {
		cg.SetShares(shares)
	}
	if periodUS == 0 {
		periodUS = 100_000
	}
	if quotaUS > 0 {
		cg.SetQuota(quotaUS, periodUS)
	}
	if cpuset > 0 {
		cg.SetCpuset(cpuset)
	}
	if memHard > 0 || memSoft > 0 {
		cg.SetMemLimits(memHard, memSoft)
	}
}

// CreateInPod builds a container inside a pod: its cgroup nests under
// the pod's, so the pod's limits govern the members collectively while
// the members compete within it by their own shares. The container gets
// its own sys_namespace, whose bounds account for both levels.
func (rt *Runtime) CreateInPod(pod *Pod, spec Spec) *Container {
	if spec.Name == "" {
		panic("container: empty name")
	}
	return rt.finishCreate(rt.hier.CreateChild(pod.Cgroup, spec.Name), spec)
}

// Create builds the container: cgroup with the spec's limits, a
// sys_namespace attached by ns_monitor, and the bootstrap init process,
// which owns the namespaces.
func (rt *Runtime) Create(spec Spec) *Container {
	if spec.Name == "" {
		panic("container: empty name")
	}
	return rt.finishCreate(rt.hier.Create(spec.Name), spec)
}

// finishCreate applies a container spec to its (flat or pod-member)
// cgroup and completes creation: namespace attachment and the bootstrap
// init process.
func (rt *Runtime) finishCreate(cg *cgroups.Cgroup, spec Spec) *Container {
	applyLimits(cg, spec.CPUShares, spec.CPUQuotaUS, spec.CPUPeriodUS, spec.CpusetCPUs, spec.MemHard, spec.MemSoft)
	cg.CPU.Gamma = spec.Gamma

	c := &Container{Spec: spec, Cgroup: cg, rt: rt}
	rt.byName[cg.Name] = c // before Attach: its publication reads the state
	c.NS = rt.mon.Attach(cg)
	c.NS.OwnerPID = rt.allocPID() // the bootstrap init
	rt.containers = append(rt.containers, c)
	return c
}

// Exec models `docker run CMD`: the bootstrap init execs the user
// command and terminates; the process started by exec becomes the new
// init (PID 1 of the container's PID namespace), and ownership of the
// sys_namespace is transferred to its host PID (the paper's modified
// execve firing on TASK_DEAD).
func (c *Container) Exec(command string) {
	if c.state == Stopped {
		panic("container: Exec on stopped container " + c.Name)
	}
	c.command = command // the previous init is TASK_DEAD
	// Ownership transfer: the namespace stays updatable by the kernel
	// for the life of the container.
	c.NS.OwnerPID = c.rt.allocPID()
	c.state = Running
	// The state transition is invisible to the cgroup event bus;
	// publish a fresh snapshot so lock-free readers see "running".
	c.rt.mon.Republish()
}

// Destroy stops the container, removes its cgroup and forgets it; the
// survivors keep their creation order. ns_monitor detaches the
// sys_namespace via the Removed event and recomputes the bounds of the
// survivors.
func (rt *Runtime) Destroy(c *Container) {
	if c.state == Stopped {
		return
	}
	c.state = Stopped
	rt.hier.Remove(c.Cgroup)
	delete(rt.byName, c.Cgroup.Name)
	if i := slices.Index(rt.containers, c); i >= 0 {
		rt.containers = slices.Delete(rt.containers, i, i+1)
	}
}

func (rt *Runtime) allocPID() int {
	pid := rt.nextHostPID
	rt.nextHostPID++
	return pid
}
