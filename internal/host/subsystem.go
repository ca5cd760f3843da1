package host

import (
	"time"

	"arv/internal/sim"
	"arv/internal/telemetry"
)

// Subsystem is one resource-control component driven by the kernel loop:
// the fluid CFS scheduler, the memory controller, ns_monitor, and the
// timer queue all implement it, and the phase pipeline iterates the
// host's subsystem list instead of hard-wiring named fields. Additional
// components (scenario drivers, custom controllers) can join the loop
// through Host.AddSubsystem.
//
// The kernel's bit-identical fast-forward contract extends to every
// subsystem: NextEvent must name the earliest instant the subsystem's
// state can change while no task is runnable, and SkipIdle must replay
// the n elided ticks exactly as n dense Tick calls on an idle host
// would have.
type Subsystem interface {
	// Tick runs the subsystem's dense per-tick work for the tick ending
	// at now. Subsystems whose state only changes through timers or
	// explicit calls (charges, cgroup writes) make this a no-op.
	Tick(now sim.Time, dt time.Duration)

	// NextEvent reports the subsystem's next self-scheduled instant
	// after now — the earliest point its state changes without any task
	// running. ok=false means the subsystem is quiescent and places no
	// bound on fast-forwarding.
	NextEvent(now sim.Time) (sim.Time, bool)

	// SkipIdle replays n consecutive idle ticks of length dt in one
	// call, bit-identical with n dense Tick calls on an idle host. now
	// is the end of the first skipped tick, matching Tick's convention.
	SkipIdle(now sim.Time, dt time.Duration, n int)

	// AttachTelemetry attaches tr as the subsystem's trace sink (nil
	// detaches; all tracer methods are nil-safe no-ops).
	AttachTelemetry(tr *telemetry.Tracer)
}

// timerWheel adapts the virtual clock's timer queue — a calendar queue
// of one-tick buckets, sim's package comment — to the Subsystem
// interface. The clock itself advances in the kernel's clock phase —
// firing due timers as it goes — so Tick and SkipIdle are no-ops here;
// the wheel's contribution to the loop is bounding every fast-forward
// jump by the earliest pending deadline (scenario timers, ns_monitor
// updates, heap samplers). NextDeadline finds it by scanning the
// bucket bitmap from the next tick on, so a jump's bound costs a few
// word tests, not a walk of every timer.
type timerWheel struct {
	clock *sim.Clock
}

func (timerWheel) Tick(now sim.Time, dt time.Duration) {}

func (w timerWheel) NextEvent(now sim.Time) (sim.Time, bool) {
	return w.clock.NextDeadline()
}

func (timerWheel) SkipIdle(now sim.Time, dt time.Duration, n int) {}

func (timerWheel) AttachTelemetry(tr *telemetry.Tracer) {}
