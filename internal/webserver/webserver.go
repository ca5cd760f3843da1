// Package webserver models the other large class of applications the
// paper's Fig. 1 audit finds affected by the semantic gap: servers
// (httpd, nginx, php-fpm, ...) that size their worker pools from the
// CPU count the kernel reports. Each server is an open-loop queueing
// system: requests arrive at a configured rate, wait in an accept
// queue, and are served by worker tasks scheduled on the simulated CFS.
//
// Three sizing policies mirror the views compared throughout this
// repository:
//
//   - SizeHost: one worker per online host CPU (the unmodified server
//     in a container — over-threads under contention);
//   - SizeStatic: one worker per limit-derived CPU (the server behind
//     LXCFS or a cgroup namespace — right only when a limit exists and
//     binds);
//   - SizeAdaptive: workers follow effective CPU, re-evaluated
//     periodically (the paper's approach applied to a server).
//
// The measured outputs are served/dropped counts and the latency
// distribution — the metrics a tail-latency-sensitive deployment cares
// about.
package webserver

import (
	"fmt"
	"sort"
	"time"

	"arv/internal/cfs"
	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/sim"
	"arv/internal/units"
)

// Sizing selects the worker-pool policy.
type Sizing int

const (
	// SizeHost sizes the pool from host online CPUs, once, at startup.
	SizeHost Sizing = iota
	// SizeStatic sizes the pool from the container's static limits
	// (cpuset, else quota), once, at startup.
	SizeStatic
	// SizeAdaptive follows the container's effective CPU, re-evaluated
	// every ResizeInterval.
	SizeAdaptive
)

// String returns the policy name.
func (s Sizing) String() string {
	switch s {
	case SizeHost:
		return "host"
	case SizeStatic:
		return "static"
	case SizeAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Sizing(%d)", int(s))
	}
}

// Config describes the server and its workload.
type Config struct {
	Sizing Sizing
	// RequestRate is the open-loop arrival rate (requests per second of
	// virtual time).
	RequestRate float64
	// ServiceCost is the CPU time one request needs.
	ServiceCost units.CPUSeconds
	// QueueLimit bounds the accept queue; arrivals beyond it are
	// dropped (503). Zero selects 512.
	QueueLimit int
	// ResizeInterval is how often SizeAdaptive re-reads effective CPU
	// (default 250 ms).
	ResizeInterval time.Duration
	// Duration stops the arrival process after this much virtual time;
	// the server drains and finishes. Zero means arrivals never stop.
	Duration time.Duration
}

// Stats aggregates the run.
type Stats struct {
	Arrived, Served, Dropped int
	// latencies in virtual time, recorded per served request
	latencies []time.Duration
}

// MeanLatency returns the mean request latency.
func (s *Stats) MeanLatency() time.Duration {
	if len(s.latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range s.latencies {
		sum += l
	}
	return sum / time.Duration(len(s.latencies))
}

// PercentileLatency returns the p-th percentile latency (0 < p <= 100).
func (s *Stats) PercentileLatency(p float64) time.Duration {
	if len(s.latencies) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(s.latencies))
	copy(sorted, s.latencies)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p/100*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

type request struct {
	arrived   sim.Time
	remaining units.CPUSeconds
}

// Server is one simulated web server process. It implements
// host.Program.
type Server struct {
	Name string

	h   *host.Host
	ctr *container.Container
	cfg Config

	workers []*cfs.Task
	active  int // workers allowed to run
	serving []*request
	queue   []*request

	activeTicks int64 // ticks with the arrival process active
	started     sim.Time
	stopped     bool
	done        bool
	resizeTmr   sim.Timer

	Stats Stats
}

// New builds a server inside ctr. Call Start.
func New(h *host.Host, ctr *container.Container, cfg Config) *Server {
	if cfg.RequestRate <= 0 {
		panic("webserver: non-positive request rate")
	}
	if cfg.ServiceCost <= 0 {
		panic("webserver: non-positive service cost")
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = 512
	}
	if cfg.ResizeInterval <= 0 {
		cfg.ResizeInterval = 250 * time.Millisecond
	}
	return &Server{
		Name: fmt.Sprintf("%s/httpd(%s)", ctr.Name, cfg.Sizing),
		h:    h,
		ctr:  ctr,
		cfg:  cfg,
	}
}

// targetWorkers evaluates the sizing policy now.
func (s *Server) targetWorkers() int {
	switch s.cfg.Sizing {
	case SizeHost:
		return s.h.Sched.NCPU()
	case SizeStatic:
		if m := s.ctr.Cgroup.CPU.CpusetN; m > 0 {
			return m
		}
		if lim := s.ctr.Cgroup.CPU.CPULimit(); lim < float64(s.h.Sched.NCPU()) {
			n := int(lim)
			if n < 1 {
				n = 1
			}
			return n
		}
		return s.h.Sched.NCPU()
	case SizeAdaptive:
		return units.ClampInt(s.ctr.NS.EffectiveCPU(), 1, len(s.workers))
	default:
		return 1
	}
}

// Start creates the worker pool (one task per host CPU, so the adaptive
// policy can expand later), sets the initial active count per policy,
// and registers the server with the host.
func (s *Server) Start() {
	team := s.h.Sched.NewTeam(s.ctr.Cgroup.CPU, 0, s.workersTick)
	for i := 0; i < s.h.Sched.NCPU(); i++ {
		s.workers = append(s.workers, s.h.Sched.NewTeamTask(team, fmt.Sprintf("httpd-w%d", i)))
	}
	s.serving = make([]*request, len(s.workers))
	s.active = units.ClampInt(s.targetWorkers(), 1, len(s.workers))
	s.started = s.h.Now()
	if s.cfg.Sizing == SizeAdaptive {
		s.resizeTmr = s.h.Clock.Every(s.cfg.ResizeInterval, func(sim.Time) {
			if !s.done {
				s.active = units.ClampInt(s.targetWorkers(), 1, len(s.workers))
			}
		})
	}
	s.h.AddProgram(s)
}

// Done implements host.Program.
func (s *Server) Done() bool { return s.done }

// workersTick advances every runnable worker's in-flight request by one
// tick of useful work, in worker order.
func (s *Server) workersTick(now sim.Time, n int, useful, raw units.CPUSeconds) {
	for i, t := range s.workers {
		if r := s.serving[i]; r != nil && t.Runnable() {
			r.remaining -= useful
		}
	}
}

// Poll implements host.Program: admit arrivals, complete finished
// requests, dispatch queued work to active workers.
func (s *Server) Poll(now sim.Time) {
	if s.done {
		return
	}
	if s.ctr.State() == container.Stopped {
		// Killed with the container: the cgroup removal already detached
		// every worker from the scheduler; in-flight and queued requests
		// are lost (connections reset), the program just retires.
		s.done = true
		s.resizeTmr.Stop()
		return
	}
	// Arrivals: exactly floor(rate x active time), computed from a tick
	// counter so floating-point accrual cannot drift.
	if !s.stopped {
		if s.cfg.Duration > 0 && now > s.started+sim.Time(s.cfg.Duration) {
			s.stopped = true
		} else {
			s.activeTicks++
			want := int(s.cfg.RequestRate*float64(s.activeTicks)*s.h.Tick().Seconds() + 1e-9)
			for s.Stats.Arrived < want {
				s.Stats.Arrived++
				if len(s.queue) >= s.cfg.QueueLimit {
					s.Stats.Dropped++
					continue
				}
				s.queue = append(s.queue, &request{arrived: now, remaining: s.cfg.ServiceCost})
			}
		}
	}

	// Completions.
	for i, r := range s.serving {
		if r != nil && r.remaining <= 0 {
			s.Stats.Served++
			s.Stats.latencies = append(s.Stats.latencies, time.Duration(now-r.arrived))
			s.serving[i] = nil
		}
	}

	// Dispatch to the first `active` workers; park the rest.
	for i, t := range s.workers {
		switch {
		case i < s.active && s.serving[i] == nil && len(s.queue) > 0:
			s.serving[i] = s.queue[0]
			s.queue = s.queue[1:]
			if !t.Runnable() {
				s.h.Sched.SetRunnable(t, true)
			}
		case i < s.active && s.serving[i] != nil:
			if !t.Runnable() {
				s.h.Sched.SetRunnable(t, true)
			}
		case s.serving[i] == nil && t.Runnable():
			s.h.Sched.SetRunnable(t, false)
		}
		// Workers beyond `active` finish their current request but take
		// no new work (graceful shrink).
	}

	if s.stopped && len(s.queue) == 0 && s.inFlight() == 0 {
		s.done = true
		s.resizeTmr.Stop()
		for _, t := range s.workers {
			s.h.Sched.RemoveTask(t)
		}
	}
}

func (s *Server) inFlight() int {
	n := 0
	for _, r := range s.serving {
		if r != nil {
			n++
		}
	}
	return n
}

// ActiveWorkers returns the current worker target.
func (s *Server) ActiveWorkers() int { return s.active }
