// Package host assembles the simulated machine: virtual clock, CFS
// scheduler, memory controller, cgroup hierarchy, ns_monitor, virtual
// sysfs resolver, and the container runtime. It drives the event-driven
// kernel loop that everything else hangs off.
//
// # Kernel loop
//
// Each Step runs a fixed phase pipeline:
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
//
// On top of dense stepping the kernel fast-forwards across provably
// idle spans: when no task is runnable and every live program has
// declared a wake policy, the kernel computes the next interesting
// instant — earliest timer deadline, scheduler event (quota-period
// boundary of a throttled group), memory event (swap-device drain),
// monitor event (a view's staleness-budget expiry), or program wake —
// replays the idle per-tick scheduler accounting in one call
// (cfs.SkipIdle), and jumps the clock to one tick before that instant.
// The interesting tick itself always executes densely, so timers,
// throttle transitions, and program wakes land on exactly the tick
// boundaries dense stepping would produce, keeping histories
// bit-identical.
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

// WakePolicy is the optional Program extension that makes a program
// eligible for fast-forwarding. NextWake returns the next instant the
// program needs a Poll even though none of its tasks ran; ok=false
// means the program is purely event-driven (its Polls are no-ops while
// its tasks are off-CPU). The contract: if NextWake(now) returns
// (t, true), then every Poll in (now, t) would be a no-op provided no
// task of the program runs in that span. Programs that cannot promise
// this simply do not implement the interface and keep the kernel dense.
type WakePolicy interface {
	NextWake(now sim.Time) (sim.Time, bool)
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

// step advances by one dense tick, first fast-forwarding across the
// preceding idle span when the kernel can prove it is uneventful. limit
// bounds the jump (the caller's run deadline).
func (h *Host) step(limit sim.Time) sim.Time {
	if k := h.idleTicks(limit); k > 0 {
		h.phaseFastForward(k)
	}
	return h.Step()
}

// idleTicks returns how many upcoming ticks can be skipped in one jump,
// or 0 when the host must step densely. A span qualifies only when no
// task is runnable and every live program has a wake policy; the jump
// stops one tick short of the earliest interesting instant (timer
// deadline, quota-period boundary, swap drain, staleness-budget expiry,
// program wake, or limit) so that tick runs densely.
func (h *Host) idleTicks(limit sim.Time) int {
	if h.Sched.RunnableNow() != 0 {
		return 0
	}
	now := h.Clock.Now()
	target := limit
	if t, ok := h.Clock.NextDeadline(); ok && t < target {
		target = t
	}
	if t, ok := h.Sched.NextEvent(now); ok && t < target {
		target = t
	}
	if t, ok := h.Mem.NextEvent(now); ok && t < target {
		target = t
	}
	if t, ok := h.Monitor.NextEvent(now); ok && t < target {
		target = t
	}
	for _, p := range h.programs {
		if p.Done() {
			continue
		}
		w, ok := p.(WakePolicy)
		if !ok {
			return 0 // unconditional poller: stay dense
		}
		if t, tok := w.NextWake(now); tok && t < target {
			target = t
		}
	}
	if target <= now {
		return 0
	}
	// Round the target up to the tick grid, then stop one tick short.
	k := int((target-now+h.tick-1)/h.tick) - 1
	if k <= 0 {
		return 0
	}
	return k
}

// phaseFastForward replays k idle ticks in one jump: the scheduler
// replays its idle accounting tick by tick, bit-identical with dense
// stepping, and the clock advances to the end of the span. Nothing else
// has per-tick work to replay: by construction no timer deadline, swap
// drain or staleness expiry falls inside the span.
func (h *Host) phaseFastForward(k int) {
	now := h.Clock.Now()
	h.Sched.SkipIdle(now+h.tick, h.tick, k)
	h.Clock.Advance(now + time.Duration(k)*h.tick)
	h.Trace.Add(telemetry.CtrFastForwards, 1)
	h.Trace.Add(telemetry.CtrSkippedTicks, uint64(k))
	h.Trace.Emit(h.Clock.Now(), telemetry.KindFastForward, "kernel", int64(k), 0)
}

// Run advances the simulation by d, fast-forwarding across idle spans.
// A dense run of the same span is a loop of Step calls.
func (h *Host) Run(d time.Duration) {
	deadline := h.Clock.Now() + d
	for h.Clock.Now() < deadline {
		h.step(deadline)
	}
}

// RunUntil steps until cond returns true or the timeout elapses; it
// reports whether cond was met. cond may depend on anything — including
// raw virtual time — so RunUntil always steps densely and evaluates
// cond once per tick.
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
// the timeout elapses; it reports whether all completed. Program
// completion only changes on ticks a program is polled, so idle-span
// fast-forwarding applies.
func (h *Host) RunUntilDone(timeout time.Duration) bool {
	deadline := h.Clock.Now() + timeout
	for h.Clock.Now() < deadline {
		if h.allDone() {
			return true
		}
		h.step(deadline)
	}
	return h.allDone()
}

func (h *Host) allDone() bool {
	for _, p := range h.programs {
		if !p.Done() {
			return false
		}
	}
	return true
}
