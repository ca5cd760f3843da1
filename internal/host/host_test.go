package host

import (
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
)

func newHost() *Host {
	return New(Config{CPUs: 4, Memory: 8 * units.GiB, Seed: 7})
}

func TestHostWiring(t *testing.T) {
	h := newHost()
	if h.Sched.NCPU() != 4 || h.Mem.Total() != 8*units.GiB {
		t.Fatal("config not applied")
	}
	if h.Tick() != time.Millisecond {
		t.Fatalf("default tick = %v", h.Tick())
	}
	if h.Resolver.For(nil).OnlineCPUs() != 4 {
		t.Fatal("host view not wired")
	}
}

func TestRunAdvancesTime(t *testing.T) {
	h := newHost()
	h.Run(100 * time.Millisecond)
	if h.Now() != 100*time.Millisecond {
		t.Fatalf("now = %v", h.Now())
	}
}

func TestContainersGetLiveNamespaces(t *testing.T) {
	h := newHost()
	ctr := h.Runtime.Create(container.Spec{Name: "a"})
	ctr.Exec("app")
	task := h.Sched.NewTask(ctr.Cgroup.CPU, "t")
	h.Sched.SetRunnable(task, true)
	h.Run(time.Second)
	if h.Monitor.Publish(h.Now()).Container("a").Updates == 0 {
		t.Fatal("monitor never updated the container's namespace")
	}
	if ctr.NS.EffectiveCPU() == 0 {
		t.Fatal("E_CPU uninitialized")
	}
}

type fakeProgram struct {
	polls  int
	done   bool
	stopAt int
}

func (p *fakeProgram) Poll(now sim.Time) {
	p.polls++
	if p.stopAt > 0 && p.polls >= p.stopAt {
		p.done = true
	}
}
func (p *fakeProgram) Done() bool { return p.done }

func TestProgramsPolledUntilDone(t *testing.T) {
	h := newHost()
	p := &fakeProgram{stopAt: 5}
	h.AddProgram(p)
	if !h.RunUntilDone(time.Second) {
		t.Fatal("RunUntilDone reported failure")
	}
	if p.polls != 5 {
		t.Fatalf("polls = %d, want 5 (not polled after done)", p.polls)
	}
	before := p.polls
	h.Run(10 * time.Millisecond)
	if p.polls != before {
		t.Fatal("done program still polled")
	}
}

func TestRunUntilCondition(t *testing.T) {
	h := newHost()
	hit := h.RunUntil(func() bool { return h.Now() >= 50*time.Millisecond }, time.Second)
	if !hit {
		t.Fatal("condition not reached")
	}
	if h.Now() < 50*time.Millisecond || h.Now() > 60*time.Millisecond {
		t.Fatalf("stopped at %v", h.Now())
	}
	if h.RunUntil(func() bool { return false }, 10*time.Millisecond) {
		t.Fatal("impossible condition reported met")
	}
}

func TestRunUntilDoneTimesOut(t *testing.T) {
	h := newHost()
	h.AddProgram(&fakeProgram{})
	if h.RunUntilDone(10 * time.Millisecond) {
		t.Fatal("should have timed out")
	}
}

func TestCustomTick(t *testing.T) {
	h := New(Config{CPUs: 2, Memory: units.GiB, Tick: 5 * time.Millisecond})
	h.Step()
	if h.Now() != 5*time.Millisecond {
		t.Fatalf("now = %v", h.Now())
	}
}

func TestProgramCompaction(t *testing.T) {
	h := newHost()
	a := &fakeProgram{stopAt: 3}
	b := &fakeProgram{stopAt: 7}
	h.AddProgram(a)
	h.AddProgram(b)
	if len(h.programs) != 2 {
		t.Fatalf("programs = %d", len(h.programs))
	}
	h.Run(5 * time.Millisecond)
	if len(h.programs) != 1 {
		t.Fatalf("finished program not compacted: programs = %d", len(h.programs))
	}
	h.Run(5 * time.Millisecond)
	if len(h.programs) != 0 {
		t.Fatalf("programs = %d after all done", len(h.programs))
	}
	if a.polls != 3 || b.polls != 7 {
		t.Fatalf("polls = %d,%d, want 3,7", a.polls, b.polls)
	}
}

// spawner registers another program from inside Poll, exercising
// compaction with a mid-poll append.
type spawner struct {
	h     *Host
	child *fakeProgram
	done  bool
}

func (s *spawner) Poll(now sim.Time) {
	if s.child == nil {
		s.child = &fakeProgram{stopAt: 4}
		s.h.AddProgram(s.child)
	}
	s.done = true
}
func (s *spawner) Done() bool { return s.done }

func TestAddProgramDuringPollSurvivesCompaction(t *testing.T) {
	h := newHost()
	s := &spawner{h: h}
	h.AddProgram(s)
	h.Step() // spawner registers child and finishes; child not yet polled
	if len(h.programs) != 1 {
		t.Fatalf("programs = %d, want just the child", len(h.programs))
	}
	if s.child.polls != 0 {
		t.Fatal("mid-poll program polled in the same tick")
	}
	h.Run(10 * time.Millisecond)
	if s.child.polls != 4 || len(h.programs) != 0 {
		t.Fatalf("child polls = %d (want 4), programs = %d (want 0)", s.child.polls, len(h.programs))
	}
}

// staleHost returns an idle host with one container under a 50 ms
// staleness budget and ns_monitor's update period pinned to an hour, so
// no update round runs in the next 100 ms (the caller checks that
// sysns.updates stays 0) and the container view's expiry is the only
// event there. It also returns the tracer and that instant.
func staleHost(t *testing.T) (*Host, *telemetry.Tracer, sim.Time) {
	t.Helper()
	h := newHost()
	h.Monitor.FixedPeriod = time.Hour
	h.Run(time.Second) // the first round at the default period re-arms with the pinned one
	h.Runtime.Create(container.Spec{Name: "a"}).Exec("app")
	h.Monitor.SetDegradation(50*time.Millisecond, 0)
	if p := h.Monitor.Period(); p != time.Hour {
		t.Fatalf("update period %v, want 1h", p)
	}
	return h, h.EnableTelemetry(0), h.Now() + 50*time.Millisecond
}

// TestStaleFallbackSameTickDenseAndRun: the kernel calls ns_monitor's
// Tick in the schedule phase, so a staleness-budget fallback engages on
// the first tick past the budget, whether the host is stepped by hand
// or by Run.
func TestStaleFallbackSameTickDenseAndRun(t *testing.T) {
	const span = 100 * time.Millisecond
	dense, dtr, expiry := staleHost(t)
	for end := dense.Now() + span; dense.Now() < end; {
		dense.Step()
	}
	run, rtr, _ := staleHost(t)
	run.Run(span)

	want := expiry + run.Tick()
	for _, side := range []struct {
		name string
		tr   *telemetry.Tracer
	}{{"dense", dtr}, {"run", rtr}} {
		fb := side.tr.EventsOf(telemetry.KindStaleFallback)
		if len(fb) != 1 || fb[0].At != want || fb[0].Actor != "a" {
			t.Fatalf("%s: fallback events %v, want one for a at %v", side.name, fb, want)
		}
		if n := side.tr.Count(telemetry.CtrStaleFallbacks); n != 1 {
			t.Fatalf("%s: stale_fallbacks = %d, want 1", side.name, n)
		}
		if n := side.tr.Count(telemetry.CtrNSUpdates); n != 0 {
			t.Fatalf("%s: sysns.updates = %d over the span, want 0", side.name, n)
		}
		if n := side.tr.Count(telemetry.CtrSteps); n != 100 {
			t.Fatalf("%s: steps = %d, want 100", side.name, n)
		}
	}
}

// TestEnableTelemetryReachesComponents: New hands one counting,
// ring-less tracer to the host, the scheduler, the memory controller
// and ns_monitor; EnableTelemetry replaces it everywhere with a fresh
// tracer that records events, and a second call replaces that one.
func TestEnableTelemetryReachesComponents(t *testing.T) {
	h := newHost()
	if tr := h.Trace; tr == nil || tr.Enabled() || h.Sched.Trace != tr || h.Mem.Trace != tr || h.Monitor.Trace != tr {
		t.Fatal("New did not hand one ring-less tracer to every component")
	}
	for i := 0; i < 2; i++ {
		tr := h.EnableTelemetry(0)
		if h.Trace != tr || h.Sched.Trace != tr || h.Mem.Trace != tr || h.Monitor.Trace != tr {
			t.Fatalf("call %d: EnableTelemetry did not reach every component", i+1)
		}
		if !tr.Enabled() || tr.Emitted() != 0 || tr.Count(telemetry.CtrSteps) != 0 {
			t.Fatalf("call %d: tracer is not fresh", i+1)
		}
		h.Run(10 * time.Millisecond)
	}
}

// TestHostCountsWithoutTelemetry: a host that never calls
// EnableTelemetry counts its kernel steps and scheduler ticks, and
// records no events (here, a throttle transition that a ring would
// hold).
func TestHostCountsWithoutTelemetry(t *testing.T) {
	h := newHost()
	h.Run(100 * time.Millisecond)
	c := h.Runtime.Create(container.Spec{Name: "a", CPUQuotaUS: 50_000, CPUPeriodUS: 100_000})
	h.Sched.SetRunnable(h.Sched.NewTask(c.Cgroup.CPU, "spin"), true)
	h.Run(50 * time.Millisecond) // throttled
	tr := h.Trace
	for _, ctr := range []telemetry.Counter{telemetry.CtrSteps, telemetry.CtrSchedTicks} {
		if tr.Count(ctr) == 0 {
			t.Errorf("%v = 0 on a host without EnableTelemetry", ctr)
		}
	}
	if tr.Emitted() != 0 || tr.Events() != nil {
		t.Fatalf("host without EnableTelemetry recorded %d events", tr.Emitted())
	}
}
