// Package host assembles the simulated machine: virtual clock, CFS
// scheduler, memory controller, cgroup hierarchy, ns_monitor, virtual
// sysfs resolver, and the container runtime. It drives the kernel loop
// that everything else hangs off.
//
// # Kernel loop
//
// Time moves only by Step, one tick at a time; Run, RunUntil and
// RunUntilDone are loops of Step. Each Step runs a fixed phase
// pipeline:
//
//	schedule → clock/timers → programs → observe
//
// The schedule phase runs the CFS scheduler's tick (it distributes CPU
// and advances task work) and then ns_monitor's (the staleness scan,
// a no-op without a staleness budget); the memory controller, the
// fault injector and the autoscaler change state only through timers,
// cgroup events and explicit calls, so they have no per-tick work. The
// clock phase moves virtual time forward and fires due timers
// (sys_namespace updates among them); the program phase polls live
// programs and compacts finished ones out of the program list; the
// observe phase records kernel-level telemetry. Each Host owns its
// complete state (clock, PRNG, telemetry ring, cgroup event bus), so
// independent Hosts can run on separate goroutines with no sharing.
package host

import (
	"time"

	"arv/internal/cfs"
	"arv/internal/cgroups"
	"arv/internal/container"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/sysfs"
	"arv/internal/sysns"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// Program is a simulated application (a JVM, an OpenMP process, a
// sysbench run, ...). The host polls every registered program once per
// tick, after the scheduler has advanced work, so the program can react
// to state changes: trigger a GC, open the next parallel region, exit.
type Program interface {
	// Poll advances the program's control logic at virtual time now.
	Poll(now sim.Time)
	// Done reports whether the program has finished (or died).
	Done() bool
}

// Config sizes a Host. Zero fields select the defaults noted inline.
type Config struct {
	CPUs   int           // required
	Memory units.Bytes   // required
	Tick   time.Duration // simulation step; default 1ms

	// SwapCapacity and SwapBandwidth configure the swap device
	// (defaults in memctl).
	SwapCapacity  units.Bytes
	SwapBandwidth units.Bytes

	// NSOptions tunes the sys_namespace algorithms (zero = as
	// published).
	NSOptions sysns.Options

	// Seed seeds the host's deterministic RNG.
	Seed uint64
}

// Host is the simulated machine.
type Host struct {
	Clock    *sim.Clock
	Sched    *cfs.Scheduler
	Mem      *memctl.Controller
	Cgroups  *cgroups.Hierarchy
	Monitor  *sysns.Monitor
	Resolver *sysfs.Resolver
	Runtime  *container.Runtime
	RNG      *sim.RNG

	// Trace is the tracer the host shares with the scheduler, the memory
	// controller and ns_monitor. New gives it one that counts and
	// records no events; EnableTelemetry replaces it with one that
	// records events too.
	Trace *telemetry.Tracer

	tick     time.Duration
	programs []Program
}

// OnNew, when non-nil, is invoked with every freshly built host at the
// end of New. It exists so cross-cutting layers can attach themselves
// to every host a test run builds, no matter how deep the construction
// site: the zero-config identity tests set it to attach an inert
// Static-policy autoscaler to every experiment host and prove the
// goldens stay byte-identical. Set it from single-threaded test setup
// and clear it afterwards; the hook runs on whichever goroutine calls
// New and must only touch the host it is handed.
var OnNew func(*Host)

// New builds a host from cfg and starts the ns_monitor update timer.
func New(cfg Config) *Host {
	tick := cfg.Tick
	if tick <= 0 {
		tick = time.Millisecond
	}
	clock := sim.NewClock(tick)
	sched := cfs.NewScheduler(cfg.CPUs)
	mem := memctl.New(memctl.Config{
		Total:         cfg.Memory,
		SwapCapacity:  cfg.SwapCapacity,
		SwapBandwidth: cfg.SwapBandwidth,
	})
	hier := cgroups.NewHierarchy(sched, mem)
	mon := sysns.NewMonitor(hier, clock, cfg.NSOptions)
	resolver := sysfs.NewResolver(&sysfs.HostView{Sched: sched, Mem: mem})
	rt := container.NewRuntime(hier, mon, resolver)

	h := &Host{
		Clock:    clock,
		Sched:    sched,
		Mem:      mem,
		Cgroups:  hier,
		Monitor:  mon,
		Resolver: resolver,
		Runtime:  rt,
		RNG:      sim.NewRNG(cfg.Seed),
		tick:     tick,
	}
	// The monitor's constructor publishes its first snapshot on the
	// monitor's own tracer, so the host's counters start after it.
	h.attach(new(telemetry.Tracer))
	mon.Start()
	if OnNew != nil {
		OnNew(h)
	}
	return h
}

// Tick returns the host's simulation step size.
func (h *Host) Tick() time.Duration { return h.tick }

// Now returns the current virtual time.
func (h *Host) Now() sim.Time { return h.Clock.Now() }

// AddProgram registers a program for per-tick polling. Finished
// programs are compacted out of the list by the program phase.
func (h *Host) AddProgram(p Program) { h.programs = append(h.programs, p) }

// EnableTelemetry attaches a fresh tracer that records events (ring
// capacity ringSize; telemetry.DefaultRingSize if <= 0) to the host,
// the scheduler, the memory controller and ns_monitor, and returns it.
// Its counters start from zero. Components layered on the host (faults,
// autoscaler) read h.Trace when they emit, so they see a tracer enabled
// after they were attached.
func (h *Host) EnableTelemetry(ringSize int) *telemetry.Tracer {
	tr := telemetry.New(ringSize)
	h.attach(tr)
	return tr
}

// attach hands tr to the host and its three counting components.
func (h *Host) attach(tr *telemetry.Tracer) {
	h.Trace = tr
	h.Sched.Trace = tr
	h.Mem.Trace = tr
	h.Monitor.Trace = tr
}

// Step advances the simulation by one dense tick through the phase
// pipeline: schedule → clock/timers → programs → observe. It returns
// the new time.
func (h *Host) Step() sim.Time {
	h.phaseSchedule()
	now := h.phaseClock()
	h.phasePrograms(now)
	h.phaseObserve(now)
	return now
}

// phaseSchedule runs one dense tick round: the scheduler's allocation,
// then ns_monitor's staleness scan. Both are handed the tick's end time,
// matching the timestamp programs and timers will observe.
func (h *Host) phaseSchedule() {
	end := h.Clock.Now() + h.tick
	h.Sched.Tick(end, h.tick)
	h.Monitor.Tick(end)
}

// phaseClock advances virtual time by one tick and fires due timers.
func (h *Host) phaseClock() sim.Time {
	return h.Clock.Step()
}

// phasePrograms polls every live program registered before this phase
// began (programs added from within a Poll start participating next
// tick, as before) and compacts finished programs out of the list.
func (h *Host) phasePrograms(now sim.Time) {
	n := len(h.programs)
	w := 0
	for i := 0; i < n; i++ {
		p := h.programs[i]
		if !p.Done() {
			p.Poll(now)
			h.Trace.Add(telemetry.CtrProgramPolls, 1)
		}
		if !p.Done() {
			h.programs[w] = p
			w++
		}
	}
	if w < n {
		// Keep any programs appended mid-poll, then nil the abandoned
		// tail so finished programs can be collected.
		m := len(h.programs)
		kept := append(h.programs[:w], h.programs[n:m]...)
		for i := len(kept); i < m; i++ {
			h.programs[i] = nil
		}
		h.programs = kept
	}
}

// phaseObserve records kernel-level accounting for the completed tick
// and flushes any pending view-snapshot publication: the scheduler,
// every timer, and every program have run, so the tick's triggers are
// fully applied and DESIGN.md §11 allows a snapshot to be cut.
// Coalescing here bounds publication to one snapshot per tick no matter
// how many cgroup events the tick carried.
func (h *Host) phaseObserve(now sim.Time) {
	h.Monitor.PublishIfDirty(now)
	h.Trace.Add(telemetry.CtrSteps, 1)
}

// Run advances the simulation by d, one Step at a time.
func (h *Host) Run(d time.Duration) {
	deadline := h.Clock.Now() + d
	for h.Clock.Now() < deadline {
		h.Step()
	}
}

// RunUntil steps until cond returns true or the timeout elapses; it
// reports whether cond was met. cond is evaluated once per tick.
func (h *Host) RunUntil(cond func() bool, timeout time.Duration) bool {
	deadline := h.Clock.Now() + timeout
	for h.Clock.Now() < deadline {
		if cond() {
			return true
		}
		h.Step()
	}
	return cond()
}

// RunUntilDone steps until every registered program reports Done, or
// the timeout elapses; it reports whether all completed.
func (h *Host) RunUntilDone(timeout time.Duration) bool {
	return h.RunUntil(h.allDone, timeout)
}

func (h *Host) allDone() bool {
	for _, p := range h.programs {
		if !p.Done() {
			return false
		}
	}
	return true
}
