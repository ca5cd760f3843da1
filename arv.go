// Package arv is the public API of the Adaptive Resource Views library —
// a faithful, simulation-backed reproduction of "Adaptive Resource Views
// for Containers" (Huang, Rao, Wu, Jin, Suo, Wu — HPDC '19).
//
// The library provides:
//
//   - a simulated Linux resource-control substrate (CFS scheduler with
//     cpu.shares / quota / cpuset, cgroups, kswapd + watermarks, a swap
//     device) on which resource-sharing dynamics play out deterministically;
//   - the paper's sys_namespace: per-container *effective* CPU
//     (Algorithm 1) and *effective* memory (Algorithm 2), continuously
//     updated by an ns_monitor, exported through a virtual sysfs;
//   - elastic runtimes built on the resource view: a HotSpot JVM model
//     with adaptive GC parallelism and the elastic heap (§4), and an
//     OpenMP runtime with effective-CPU thread sizing;
//   - the paper's workload suite (DaCapo, SPECjvm2008, HiBench, NPB,
//     sysbench, the §5.3 micro-benchmark) and one experiment driver per
//     figure/table of the evaluation.
//
// Quick start:
//
//	h := arv.NewHost(arv.HostConfig{CPUs: 20, Memory: 128 * arv.GiB})
//	ctr := h.Runtime.Create(arv.ContainerSpec{Name: "web", CPUShares: 1024})
//	ctr.Exec("java -jar app.jar")
//	// ... the container's applications read effective resources:
//	cpus := ctr.View().OnlineCPUs()          // E_CPU, not host CPUs
//	mem := ctr.View().TotalMemory()          // E_MEM, not host RAM
//	h.Run(5 * time.Second)                   // advance virtual time
//
// See examples/ for complete programs and cmd/arvbench for regenerating
// the paper's figures.
package arv

import (
	"arv/internal/container"
	"arv/internal/dockerhub"
	"arv/internal/experiments"
	"arv/internal/host"
	"arv/internal/jvm"
	"arv/internal/omp"
	"arv/internal/sysfs"
	"arv/internal/sysns"
	"arv/internal/telemetry"
	"arv/internal/units"
	"arv/internal/webserver"
	"arv/internal/workloads"
)

// Re-exported size units.
const (
	KiB = units.KiB
	MiB = units.MiB
	GiB = units.GiB
)

// Bytes is a memory size.
type Bytes = units.Bytes

// CPUSeconds is an amount of CPU time (1.0 = one CPU for one second).
type CPUSeconds = units.CPUSeconds

// Host is the simulated machine: clock, CFS scheduler, memory
// controller, cgroups, ns_monitor, virtual sysfs, and the container
// runtime.
type Host = host.Host

// HostConfig sizes a Host.
type HostConfig = host.Config

// NewHost builds a simulated host and starts its ns_monitor.
func NewHost(cfg HostConfig) *Host { return host.New(cfg) }

// Program is anything the host advances each tick (JVMs, OpenMP
// processes, load generators).
type Program = host.Program

// Tracer is the structured counter/trace sink every Host carries in
// Host.Trace: its counters always count, and it records events once
// Host.EnableTelemetry has given it a ring. TraceEvent is one recorded
// event.
type (
	Tracer       = telemetry.Tracer
	TraceEvent   = telemetry.Event
	TraceKind    = telemetry.Kind
	TraceCounter = telemetry.Counter
)

// Re-exported trace event kinds and counters.
const (
	TraceThrottle      = telemetry.KindThrottle
	TraceUnthrottle    = telemetry.KindUnthrottle
	TraceKswapd        = telemetry.KindKswapd
	TraceDirectReclaim = telemetry.KindDirectReclaim
	TraceOOMKill       = telemetry.KindOOMKill
	TraceNSUpdate      = telemetry.KindNSUpdate

	CtrSteps          = telemetry.CtrSteps
	CtrProgramPolls   = telemetry.CtrProgramPolls
	CtrSchedTicks     = telemetry.CtrSchedTicks
	CtrNSUpdates      = telemetry.CtrNSUpdates
	CtrKswapdRuns     = telemetry.CtrKswapdRuns
	CtrDirectReclaims = telemetry.CtrDirectReclaims
	CtrOOMKills       = telemetry.CtrOOMKills
)

// ContainerSpec describes a container's resources (shares, quota,
// cpuset, memory limits) as given to `docker run`.
type ContainerSpec = container.Spec

// Container is a running container: cgroup + namespaces + processes.
type Container = container.Container

// PodSpec describes a pod-level cgroup (the Kubernetes pod shape):
// collective limits and a collective share for a group of containers.
type PodSpec = container.PodSpec

// Pod is a live pod; create members with Host.Runtime.CreateInPod.
type Pod = container.Pod

// SysNamespace is the paper's per-container effective-resource view.
type SysNamespace = sysns.SysNamespace

// NSOptions tunes the sys_namespace algorithms away from the published
// constants (used for ablations). Graceful degradation is configured on
// the live monitor (Host.Monitor.SetDegradation). ns_monitor's
// full-recompute reference, like cfs's rebuild oracle, is a test-only
// seam (sysns.UseFullRecompute, cfs.UseRebuildOracle) that no option
// reaches.
type NSOptions = sysns.Options

// View answers resource probes (sysconf, /sys, /proc) for a process.
type View = sysfs.View

// Sysconf names for View.Sysconf.
const (
	ScNProcessorsOnln = sysfs.ScNProcessorsOnln
	ScNProcessorsConf = sysfs.ScNProcessorsConf
	ScPhysPages       = sysfs.ScPhysPages
	ScAvPhysPages     = sysfs.ScAvPhysPages
	ScPageSize        = sysfs.ScPageSize
)

// --- HotSpot JVM model (case studies §4.1 and §4.2) ---

// JVM is a simulated HotSpot JVM process.
type JVM = jvm.JVM

// JVMConfig selects the JVM variant (policy, -Xms/-Xmx, elastic heap).
type JVMConfig = jvm.Config

// JVMWorkload is a Java benchmark profile.
type JVMWorkload = jvm.Workload

// JVM policies evaluated in the paper.
const (
	JVMVanilla8 = jvm.Vanilla8 // JDK 8, static GC threads from host CPUs
	JVMDynamic8 = jvm.Dynamic8 // JDK 8 + dynamic GC threads
	JVM9        = jvm.JDK9     // static container limits (cpuset/quota)
	JVM10       = jvm.JDK10    // + share-derived static core count
	JVMAdaptive = jvm.Adaptive // the paper: GC threads from E_CPU
	JVMOptFixed = jvm.OptFixed // hand-tuned fixed thread count
	// JVMTransparent is an unmodified JDK 8 on the patched kernel: its
	// launch-time probes see effective resources through the virtual
	// sysfs, but nothing re-adjusts afterwards.
	JVMTransparent = jvm.Transparent
)

// NewJVM builds a JVM running workload w inside ctr; call Start on the
// result to launch it.
func NewJVM(h *Host, ctr *Container, w JVMWorkload, cfg JVMConfig) *JVM {
	return jvm.New(h, ctr, w, cfg)
}

// --- OpenMP runtime model (§4.1) ---

// OpenMP is a simulated OpenMP process.
type OpenMP = omp.Program

// OMPKernel is an OpenMP workload profile.
type OMPKernel = omp.Kernel

// OMPStrategy selects how the runtime sizes its thread teams.
type OMPStrategy = omp.Strategy

// OpenMP thread strategies evaluated in the paper.
const (
	OMPStatic   = omp.Static   // one thread per online host CPU
	OMPDynamic  = omp.Dynamic  // n_onln - loadavg
	OMPAdaptive = omp.Adaptive // E_CPU from the sys_namespace
)

// NewOpenMP builds an OpenMP program running kernel inside ctr; call
// Start on the result to launch it.
func NewOpenMP(h *Host, ctr *Container, kernel OMPKernel, strategy OMPStrategy) *OpenMP {
	return omp.New(h, ctr, kernel, strategy)
}

// --- web-server model (extension: the Fig. 1 server class) ---

// WebServer is a simulated httpd-style server with an auto-sized worker
// pool.
type WebServer = webserver.Server

// WebServerConfig describes the server and its request stream.
type WebServerConfig = webserver.Config

// Worker-pool sizing policies.
const (
	SizeHost     = webserver.SizeHost     // workers = host CPUs
	SizeStatic   = webserver.SizeStatic   // workers = static limits (LXCFS view)
	SizeAdaptive = webserver.SizeAdaptive // workers follow E_CPU
)

// NewWebServer builds a server inside ctr; call Start on the result.
func NewWebServer(h *Host, ctr *Container, cfg WebServerConfig) *WebServer {
	return webserver.New(h, ctr, cfg)
}

// --- workload suite ---

// DaCapo returns a DaCapo benchmark profile (h2, jython, lusearch,
// sunflow, xalan).
func DaCapo(name string) JVMWorkload { return workloads.DaCapo(name) }

// SPECjvm returns a SPECjvm2008 benchmark profile.
func SPECjvm(name string) JVMWorkload { return workloads.SPECjvm(name) }

// HiBench returns a HiBench big-data application profile.
func HiBench(name string) JVMWorkload { return workloads.HiBench(name) }

// MicroBench returns the §5.3 heap micro-benchmark (1 MiB allocated,
// 512 KiB freed per iteration; 20 GiB working set).
func MicroBench() JVMWorkload { return workloads.MicroBench() }

// NPB returns a NAS Parallel Benchmark kernel profile.
func NPB(name string) OMPKernel { return workloads.NPB(name) }

// WorkloadNames lists the benchmark names per suite. The plain
// DaCapo/SPECjvm lists are the paper's figures' sets; the *All lists
// include the full profiled suites.
var (
	DaCapoNames     = workloads.DaCapoNames
	DaCapoAllNames  = workloads.DaCapoAllNames
	SPECjvmNames    = workloads.SPECjvmNames
	SPECjvmAllNames = workloads.SPECjvmAllNames
	HiBenchNames    = workloads.HiBenchNames
	NPBNames        = workloads.NPBNames
)

// Sysbench is a CPU-hog load generator.
type Sysbench = workloads.Sysbench

// NewSysbench builds a CPU hog with the given parallelism and total CPU
// demand; call Start on the result.
func NewSysbench(h *Host, ctr *Container, threads int, work CPUSeconds) *Sysbench {
	return workloads.NewSysbench(h, ctr, threads, work)
}

// MemHog is a background memory-pressure generator.
type MemHog = workloads.MemHog

// NewMemHog builds a memory hog charging up to target at the given rate;
// call Start on the result.
func NewMemHog(h *Host, ctr *Container, target, rate Bytes) *MemHog {
	return workloads.NewMemHog(h, ctr, target, rate, 0)
}

// --- experiments & studies ---

// Experiment is a registered reproduction of one of the paper's tables
// or figures.
type Experiment = experiments.Entry

// ExperimentOptions tunes an experiment run: Scale < 1 gives smoke
// runs; Workers bounds how many independent trials run at once (0 =
// GOMAXPROCS, 1 = sequential), with byte-identical output at any width.
type ExperimentOptions = experiments.Options

// ExperimentResult is a regenerated figure/table.
type ExperimentResult = experiments.Result

// Experiments returns every registered experiment, sorted by id
// (fig1, fig2a, ... fig12).
func Experiments() []Experiment { return experiments.All() }

// LookupExperiment finds an experiment by id.
func LookupExperiment(id string) (Experiment, bool) { return experiments.Lookup(id) }

// DockerHubTop100 returns the Fig. 1 audit dataset.
func DockerHubTop100() []dockerhub.Image { return dockerhub.Top100() }

// DockerHubCounts returns the per-language affected/unaffected tallies
// of Fig. 1.
func DockerHubCounts() []dockerhub.Count { return dockerhub.CountByLanguage() }
