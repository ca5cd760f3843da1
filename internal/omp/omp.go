// Package omp models a libgomp-style OpenMP runtime: a program is a
// sequence of parallel regions; at the start of each region the runtime
// picks a thread count according to one of three strategies the paper
// compares (§4.1, Fig. 10):
//
//   - Static: one thread per online CPU, the libgomp default, oblivious
//     to container limits;
//   - Dynamic: OMP_DYNAMIC's gomp_dynamic_max_threads, n_onln − loadavg;
//   - Adaptive: the paper's change — E_CPU from the container's
//     sys_namespace ("we substitute n_onln with E_CPU and remove the
//     second term of the formula as effective CPU already includes load
//     information at a much finer granularity").
//
// Worker threads are scheduler tasks sharing a work pool (dynamic
// scheduling), with a serial fraction drained by the master thread and a
// per-thread spawn/barrier cost per region, so over-threading inside a
// throttled container costs real time.
package omp

import (
	"fmt"
	"math"
	"time"

	"arv/internal/cfs"
	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/sim"
	"arv/internal/units"
)

// Strategy selects the thread-count policy.
type Strategy int

const (
	// Static launches one thread per online host CPU in every region.
	Static Strategy = iota
	// Dynamic launches n_onln − loadavg threads (at least one).
	Dynamic
	// Adaptive launches E_CPU threads.
	Adaptive
	// StaticLimits launches one thread per *limit-derived* CPU — what an
	// unmodified OpenMP program sees through LXCFS or a cgroup
	// namespace (prior art): the administrator-set limit, with no
	// knowledge of actual allocation.
	StaticLimits
)

// String returns the strategy name used in Fig. 10.
func (s Strategy) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Adaptive:
		return "adaptive"
	case StaticLimits:
		return "lxcfs"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Kernel is an OpenMP workload profile (an NPB program in the paper's
// evaluation).
type Kernel struct {
	Name string
	// Regions is the number of parallel regions executed sequentially.
	Regions int
	// WorkPerRegion is the CPU time one region needs.
	WorkPerRegion units.CPUSeconds
	// SerialFrac is the non-parallelizable fraction of each region.
	SerialFrac float64
	// SpawnCost is the per-thread, per-region thread-management
	// overhead (team fork/join, barrier).
	SpawnCost units.CPUSeconds
	// ResizeCost is the per-thread cost of growing or shrinking the
	// team between consecutive regions (libgomp tears down and
	// re-creates workers when the dynamic team size changes, losing
	// warm stacks and TLB state). Strategies with an oscillating
	// thread count pay this constantly; fixed-count strategies never
	// do.
	ResizeCost units.CPUSeconds
	// Gamma is the oversubscription sensitivity of the kernel
	// (synchronization-heavy kernels suffer more from time-slicing).
	Gamma float64
}

// TotalWork returns the kernel's aggregate CPU demand, ignoring
// overheads.
func (k Kernel) TotalWork() units.CPUSeconds {
	return k.WorkPerRegion * units.CPUSeconds(k.Regions)
}

// Program is one OpenMP process in a container. It implements
// host.Program.
type Program struct {
	Name string

	h        *host.Host
	ctr      *container.Container
	kernel   Kernel
	strategy Strategy

	tasks  []*cfs.Task
	prevN  int
	region int
	par    units.CPUSeconds
	ser    units.CPUSeconds
	active int
	inReg  bool
	done   bool

	// Stats
	StartedAt, EndedAt sim.Time
	ThreadTrace        []int
}

// New builds an OpenMP program running kernel inside ctr. Call Start.
func New(h *host.Host, ctr *container.Container, kernel Kernel, strategy Strategy) *Program {
	if kernel.Regions <= 0 {
		kernel.Regions = 1
	}
	return &Program{
		Name:     fmt.Sprintf("%s/%s(%s)", ctr.Name, kernel.Name, strategy),
		h:        h,
		ctr:      ctr,
		kernel:   kernel,
		strategy: strategy,
	}
}

// Done implements host.Program.
func (p *Program) Done() bool { return p.done }

// ExecTime returns the program's wall time (valid once Done).
func (p *Program) ExecTime() time.Duration { return time.Duration(p.EndedAt - p.StartedAt) }

// Start creates the worker pool (sized to the host CPU count — OpenMP
// can always spawn that many) and opens the first region. The program
// registers itself with the host.
func (p *Program) Start() {
	if p.ctr.Spec.Gamma != 0 {
		// The kernel's sensitivity rides on the container's scheduler
		// group.
		p.ctr.Cgroup.CPU.Gamma = p.ctr.Spec.Gamma
	}
	if p.kernel.Gamma > 0 {
		p.ctr.Cgroup.CPU.Gamma = p.kernel.Gamma
	}
	pool := p.h.Sched.NCPU()
	team := p.h.Sched.NewTeam(p.ctr.Cgroup.CPU, 0, p.teamTick)
	for i := 0; i < pool; i++ {
		p.tasks = append(p.tasks, p.h.Sched.NewTeamTask(team, fmt.Sprintf("%s-omp%d", p.kernel.Name, i)))
	}
	p.StartedAt = p.h.Now()
	p.openRegion()
	p.h.AddProgram(p)
}

// threadCount evaluates the strategy at region entry.
func (p *Program) threadCount() int {
	pool := len(p.tasks)
	switch p.strategy {
	case Static:
		// sysconf(_SC_NPROCESSORS_ONLN) through the unredirected
		// kernel: all host CPUs.
		return pool
	case Dynamic:
		n := p.h.Sched.NCPU() - int(math.Round(p.h.Sched.LoadAvg()))
		return units.ClampInt(n, 1, pool)
	case Adaptive:
		return units.ClampInt(p.ctr.NS.EffectiveCPU(), 1, pool)
	case StaticLimits:
		return units.ClampInt(p.ctr.Cgroup.CPU.StaticCPUs(pool), 1, pool)
	default:
		return 1
	}
}

func (p *Program) openRegion() {
	n := p.threadCount()
	p.active = n
	p.ThreadTrace = append(p.ThreadTrace, n)
	w := p.kernel.WorkPerRegion
	p.ser = units.CPUSeconds(float64(w) * p.kernel.SerialFrac)
	p.par = w - p.ser + p.kernel.SpawnCost*units.CPUSeconds(n)
	if p.prevN > 0 && n != p.prevN {
		delta := n - p.prevN
		if delta < 0 {
			delta = -delta
		}
		p.ser += p.kernel.ResizeCost * units.CPUSeconds(delta)
	}
	p.prevN = n
	p.inReg = true
	for i := 0; i < n; i++ {
		p.h.Sched.SetRunnable(p.tasks[i], true)
	}
}

// teamTick advances the n runnable workers in thread order: each drains
// the parallel work first, and the master (thread 0) alone then drains
// the serial tail.
func (p *Program) teamTick(now sim.Time, n int, useful, raw units.CPUSeconds) {
	par, ser := p.par, p.ser
	master := p.tasks[0].Runnable()
	for k := 0; k < n; k++ {
		if par > 0 {
			par -= useful
		} else if k == 0 && master && ser > 0 {
			ser -= useful
		}
	}
	p.par, p.ser = par, ser
}

// Poll implements host.Program: region barrier and sequencing logic.
func (p *Program) Poll(now sim.Time) {
	if !p.inReg {
		return
	}
	if p.par <= 0 && p.active > 1 {
		// Implicit barrier reached by the team; the master finishes the
		// serial tail.
		for _, t := range p.tasks[1:] {
			if t.Runnable() {
				p.h.Sched.SetRunnable(t, false)
			}
		}
		p.active = 1
	}
	if p.par <= 0 && p.ser <= 0 {
		p.closeRegion(now)
	}
}

func (p *Program) closeRegion(now sim.Time) {
	for _, t := range p.tasks {
		if t.Runnable() {
			p.h.Sched.SetRunnable(t, false)
		}
	}
	p.inReg = false
	p.region++
	if p.region >= p.kernel.Regions {
		p.done = true
		p.EndedAt = now
		for _, t := range p.tasks {
			p.h.Sched.RemoveTask(t)
		}
		return
	}
	p.openRegion()
}
