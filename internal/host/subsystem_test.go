package host

import (
	"testing"
	"time"

	"arv/internal/cfs"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/sysns"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// Compile-time proof that every built-in component satisfies Subsystem.
var (
	_ Subsystem = (*cfs.Scheduler)(nil)
	_ Subsystem = (*memctl.Controller)(nil)
	_ Subsystem = (*sysns.Monitor)(nil)
	_ Subsystem = timerWheel{}
)

// fakeSubsystem records every kernel callback it receives.
type fakeSubsystem struct {
	ticks     int
	skipped   int
	skipCalls int
	attached  *telemetry.Tracer
	next      sim.Time // NextEvent bound; 0 = quiescent
	lastTick  sim.Time
}

func (f *fakeSubsystem) Tick(now sim.Time, dt time.Duration) {
	f.ticks++
	f.lastTick = now
}

func (f *fakeSubsystem) NextEvent(now sim.Time) (sim.Time, bool) {
	if f.next > now {
		return f.next, true
	}
	return 0, false
}

func (f *fakeSubsystem) SkipIdle(now sim.Time, dt time.Duration, n int) {
	f.skipCalls++
	f.skipped += n
}

func (f *fakeSubsystem) AttachTelemetry(tr *telemetry.Tracer) { f.attached = tr }

func newTestHost() *Host {
	return New(Config{CPUs: 4, Memory: units.GiB, Seed: 1})
}

// quietTestHost returns an idle host whose ns_monitor update timer sits
// an hour out, so no timer bounds fast-forward in the next minutes. The
// timer armed at construction fires once at the default period and then
// re-arms with the pinned one.
func quietTestHost(t *testing.T) *Host {
	t.Helper()
	h := newTestHost()
	h.Monitor.FixedPeriod = time.Hour
	h.Run(time.Second)
	if d, ok := h.Clock.NextDeadline(); !ok || d < h.Now()+time.Minute {
		t.Fatalf("monitor timer still near: next deadline %v at %v", d, h.Now())
	}
	return h
}

func TestSubsystemListDrivenByKernel(t *testing.T) {
	h := newTestHost()
	want := []Subsystem{h.Sched, h.Mem, h.Monitor, timerWheel{h.Clock}}
	if len(h.subsystems) != len(want) {
		t.Fatalf("built-in subsystem count = %d, want 4 (cfs, memctl, sysns, timers)", len(h.subsystems))
	}
	for i, ss := range want {
		if h.subsystems[i] != ss {
			t.Errorf("subsystem %d = %T, want %T", i, h.subsystems[i], ss)
		}
	}

	f := &fakeSubsystem{}
	h.AddSubsystem(f)
	for i := 0; i < 5; i++ {
		h.Step()
	}
	if f.ticks != 5 {
		t.Errorf("fake.Tick ran %d times over 5 steps", f.ticks)
	}
	if f.lastTick != h.Now() {
		t.Errorf("fake.Tick saw now=%v, kernel at %v", f.lastTick, h.Now())
	}
}

// TestSubsystemNextEventBoundsFastForward: a subsystem's NextEvent must
// cap the idle jump exactly like a timer deadline would, and the elided
// span must be handed to every subsystem's SkipIdle.
func TestSubsystemNextEventBoundsFastForward(t *testing.T) {
	h := quietTestHost(t)
	t0 := h.Now()
	f := &fakeSubsystem{next: t0 + 50*time.Millisecond}
	h.AddSubsystem(f)

	h.Run(40 * time.Millisecond)
	if f.skipCalls == 0 {
		t.Fatal("fast-forward never reached the fake subsystem's SkipIdle")
	}
	// Dense steps + skipped ticks must cover the whole span.
	if total := f.ticks + f.skipped; total != 40 {
		t.Errorf("ticks(%d) + skipped(%d) = %d, want 40", f.ticks, f.skipped, total)
	}

	// The jump must stop one tick short of the subsystem's event so the
	// event tick itself executes densely.
	h2 := quietTestHost(t)
	f2 := &fakeSubsystem{next: t0 + 50*time.Millisecond}
	h2.AddSubsystem(f2)
	h2.Run(100 * time.Millisecond)
	if f2.lastTick != t0+100*time.Millisecond {
		t.Errorf("final tick at %v, want %v", f2.lastTick, t0+100*time.Millisecond)
	}
	if f2.ticks+f2.skipped != 100 {
		t.Errorf("ticks(%d) + skipped(%d) != 100", f2.ticks, f2.skipped)
	}
	if f2.ticks < 2 {
		t.Errorf("event tick should run densely; only %d dense ticks", f2.ticks)
	}
}

func TestEnableTelemetryAttachesAllSubsystems(t *testing.T) {
	h := newTestHost()
	f := &fakeSubsystem{}
	h.AddSubsystem(f)
	tr := h.EnableTelemetry(0)
	if f.attached != tr {
		t.Error("EnableTelemetry did not reach the added subsystem")
	}
	if h.Sched.Trace != tr || h.Mem.Trace != tr || h.Monitor.Trace != tr {
		t.Error("EnableTelemetry did not reach a built-in subsystem")
	}

	// A subsystem added after EnableTelemetry inherits the tracer.
	f2 := &fakeSubsystem{}
	h.AddSubsystem(f2)
	if f2.attached != tr {
		t.Error("AddSubsystem did not hand the live tracer to a late subsystem")
	}
}
