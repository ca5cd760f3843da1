package workloads

import (
	"fmt"
	"time"

	"arv/internal/cfs"
	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/sim"
	"arv/internal/units"
)

// Sysbench is a CPU-burner in the style of `sysbench cpu run`: Threads
// workers consuming TotalWork CPU time, then exiting. Fig. 8 co-locates
// nine of these (with staggered amounts of work) next to a DaCapo
// container to make host CPU availability vary over time.
type Sysbench struct {
	Name string

	h     *host.Host
	ctr   *container.Container
	tasks []*cfs.Task

	threads   int
	totalWork units.CPUSeconds
	workDone  units.CPUSeconds
	done      bool
}

// NewSysbench builds a CPU hog with the given parallelism and total
// CPU demand. Call Start.
func NewSysbench(h *host.Host, ctr *container.Container, threads int, work units.CPUSeconds) *Sysbench {
	if threads <= 0 {
		threads = 1
	}
	return &Sysbench{
		Name:      fmt.Sprintf("%s/sysbench", ctr.Name),
		h:         h,
		ctr:       ctr,
		threads:   threads,
		totalWork: work,
	}
}

// Start launches the workers and registers the program with the host.
func (s *Sysbench) Start() {
	team := s.h.Sched.NewTeam(s.ctr.Cgroup.CPU, 0, func(now sim.Time, n int, useful, raw units.CPUSeconds) {
		work := s.workDone
		for k := 0; k < n; k++ {
			work += useful
		}
		s.workDone = work
	})
	for i := 0; i < s.threads; i++ {
		t := s.h.Sched.NewTeamTask(team, fmt.Sprintf("sysbench%d", i))
		s.tasks = append(s.tasks, t)
		s.h.Sched.SetRunnable(t, true)
	}
	s.h.AddProgram(s)
}

// Done implements host.Program.
func (s *Sysbench) Done() bool { return s.done }

// Poll implements host.Program.
func (s *Sysbench) Poll(now sim.Time) {
	if s.done {
		return
	}
	if s.ctr.State() == container.Stopped {
		// Killed with the container: tasks are already detached from the
		// scheduler, just retire the program.
		s.done = true
		return
	}
	if s.workDone < s.totalWork {
		return
	}
	s.done = true
	for _, t := range s.tasks {
		s.h.Sched.RemoveTask(t)
	}
}

// MemHog is the "memory-intensive workload in the background to cause
// memory shortage" of §2.2/Fig. 2(b): it charges memory at Rate up to
// Target, holds it for Hold, then releases everything and exits. One
// low-demand task keeps it schedulable so the host load reflects it.
type MemHog struct {
	Name string

	h   *host.Host
	ctr *container.Container

	// Target is the resident size to reach; Rate is bytes per second of
	// wall time; Hold is how long to sit at Target before releasing
	// (0 = forever).
	Target units.Bytes
	Rate   units.Bytes
	Hold   time.Duration

	task      *cfs.Task
	acquired  units.Bytes
	fullSince sim.Time
	done      bool
}

// NewMemHog builds a background memory hog. Call Start.
func NewMemHog(h *host.Host, ctr *container.Container, target, rate units.Bytes, hold time.Duration) *MemHog {
	return &MemHog{
		Name:   fmt.Sprintf("%s/memhog", ctr.Name),
		h:      h,
		ctr:    ctr,
		Target: target,
		Rate:   rate,
		Hold:   hold,
	}
}

// Start registers the hog with the host.
func (m *MemHog) Start() {
	m.task = m.h.Sched.NewTask(m.ctr.Cgroup.CPU, "memhog")
	m.h.Sched.SetRunnable(m.task, true)
	m.h.AddProgram(m)
}

// Done implements host.Program.
func (m *MemHog) Done() bool { return m.done }

// Full reports whether the hog has reached its target (or died trying).
func (m *MemHog) Full() bool { return m.done || m.acquired >= m.Target }

// Poll implements host.Program: acquire memory up to Target, hold, then
// release.
func (m *MemHog) Poll(now sim.Time) {
	if m.done {
		return
	}
	if m.ctr.State() == container.Stopped {
		m.done = true
		return
	}
	if m.acquired < m.Target {
		step := units.Bytes(float64(m.Rate) * m.h.Tick().Seconds())
		if step > m.Target-m.acquired {
			step = m.Target - m.acquired
		}
		if _, ok := m.h.Mem.Charge(m.ctr.Cgroup.Mem, step, now); !ok {
			m.done = true
			m.h.Sched.RemoveTask(m.task)
			return
		}
		m.acquired += step
		if m.acquired >= m.Target {
			m.fullSince = now
		}
		return
	}
	if m.Hold > 0 && now >= m.fullSince+m.Hold {
		m.h.Mem.Uncharge(m.ctr.Cgroup.Mem, m.acquired)
		m.acquired = 0
		m.done = true
		m.h.Sched.RemoveTask(m.task)
	}
}
