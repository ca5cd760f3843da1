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

// sleeper wakes on a fixed period and records the tick it woke on; in
// between, Poll is a no-op, which it advertises through NextWake.
type sleeper struct {
	period time.Duration
	next   sim.Time
	wakes  []sim.Time
	done   bool
}

func (s *sleeper) Poll(now sim.Time) {
	if now >= s.next {
		s.wakes = append(s.wakes, now)
		s.next = now + sim.Time(s.period)
	}
}
func (s *sleeper) Done() bool                             { return s.done }
func (s *sleeper) NextWake(now sim.Time) (sim.Time, bool) { return s.next, true }

func TestFastForwardSkipsIdleSpans(t *testing.T) {
	h := newHost()
	tr := h.EnableTelemetry(0)
	s := &sleeper{period: 50 * time.Millisecond}
	h.AddProgram(s)
	h.Run(time.Second)
	if h.Now() != time.Second {
		t.Fatalf("now = %v", h.Now())
	}
	skipped := tr.Count(telemetry.CtrSkippedTicks)
	steps := tr.Count(telemetry.CtrSteps)
	if skipped == 0 {
		t.Fatal("idle host never fast-forwarded")
	}
	if steps+skipped != 1000 {
		t.Fatalf("steps(%d) + skipped(%d) != 1000 ticks", steps, skipped)
	}
	if steps > 200 {
		t.Fatalf("dense steps = %d of 1000 ticks; expected most to be skipped", steps)
	}
	if tr.Count(telemetry.CtrFastForwards) == 0 || len(tr.EventsOf(telemetry.KindFastForward)) == 0 {
		t.Fatal("fast-forward jumps not traced")
	}
}

func TestFastForwardMatchesDense(t *testing.T) {
	run := func(ff bool) (*Host, *sleeper) {
		h := New(Config{CPUs: 4, Memory: 8 * units.GiB, Seed: 7})
		s := &sleeper{period: 97 * time.Millisecond}
		h.AddProgram(s)
		if ff {
			h.Run(2 * time.Second)
		} else {
			for h.Now() < 2*time.Second {
				h.Step()
			}
		}
		return h, s
	}
	hd, sd := run(false)
	hf, sf := run(true)
	if len(sd.wakes) != len(sf.wakes) {
		t.Fatalf("wake counts differ: dense %d, ff %d", len(sd.wakes), len(sf.wakes))
	}
	for i := range sd.wakes {
		if sd.wakes[i] != sf.wakes[i] {
			t.Fatalf("wake %d: dense %v, ff %v", i, sd.wakes[i], sf.wakes[i])
		}
	}
	if hd.Sched.LoadAvg() != hf.Sched.LoadAvg() {
		t.Fatalf("loadavg diverged: dense %v, ff %v", hd.Sched.LoadAvg(), hf.Sched.LoadAvg())
	}
	if hd.Sched.TakeWindowSlack() != hf.Sched.TakeWindowSlack() {
		t.Fatal("slack window diverged")
	}
	if hd.Now() != hf.Now() {
		t.Fatalf("time diverged: %v vs %v", hd.Now(), hf.Now())
	}
}

func TestNonWakePolicyProgramKeepsKernelDense(t *testing.T) {
	h := newHost()
	tr := h.EnableTelemetry(0)
	h.AddProgram(&fakeProgram{}) // no NextWake: must be polled every tick
	h.Run(100 * time.Millisecond)
	if got := tr.Count(telemetry.CtrSkippedTicks); got != 0 {
		t.Fatalf("fast-forwarded %d ticks past a wake-less program", got)
	}
	if got := tr.Count(telemetry.CtrSteps); got != 100 {
		t.Fatalf("steps = %d, want 100", got)
	}
}

func TestRunnableTaskBlocksFastForward(t *testing.T) {
	h := newHost()
	tr := h.EnableTelemetry(0)
	g := h.Sched.NewGroup("busy")
	task := h.Sched.NewTask(g, "t")
	h.Sched.SetRunnable(task, true)
	h.Run(50 * time.Millisecond)
	if got := tr.Count(telemetry.CtrSkippedTicks); got != 0 {
		t.Fatalf("fast-forwarded %d ticks with a runnable task", got)
	}
	h.Sched.SetRunnable(task, false)
	h.Run(50 * time.Millisecond)
	if tr.Count(telemetry.CtrSkippedTicks) == 0 {
		t.Fatal("no fast-forward after the task went idle")
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
// staleness budget and ns_monitor's update timer an hour out, so the
// only instant that bounds an idle jump in the next 100 ms is the
// container view's expiry, Monitor.NextEvent. It also returns the
// tracer and that instant.
func staleHost(t *testing.T) (*Host, *telemetry.Tracer, sim.Time) {
	t.Helper()
	h := newHost()
	h.Monitor.FixedPeriod = time.Hour
	h.Run(time.Second) // the first round at the default period re-arms with the pinned one
	h.Runtime.Create(container.Spec{Name: "a"}).Exec("app")
	h.Monitor.SetDegradation(50*time.Millisecond, 0)
	tr := h.EnableTelemetry(0)
	next, ok := h.Monitor.NextEvent(h.Now())
	if !ok || next != h.Now()+50*time.Millisecond {
		t.Fatalf("monitor next event (%v, %v), want the view's expiry at %v", next, ok, h.Now()+50*time.Millisecond)
	}
	if d, ok := h.Clock.NextDeadline(); ok && d < h.Now()+time.Minute {
		t.Fatalf("a timer is due at %v, within the test span", d)
	}
	return h, tr, next
}

// TestStaleFallbackSameTickDenseAndRun: the kernel calls ns_monitor's
// Tick in the schedule phase and bounds idle jumps by its NextEvent, so
// a staleness-budget fallback engages on the same tick whether the host
// steps densely or Run fast-forwards: the first tick past the budget.
// Run's jump stops one tick short of Monitor.NextEvent, and dense steps
// plus skipped ticks cover the span exactly.
func TestStaleFallbackSameTickDenseAndRun(t *testing.T) {
	const span = 100 * time.Millisecond
	dense, dtr, next := staleHost(t)
	for end := dense.Now() + span; dense.Now() < end; {
		dense.Step()
	}
	ff, ftr, _ := staleHost(t)
	ff.Run(span)

	want := next + ff.Tick()
	for _, side := range []struct {
		name string
		tr   *telemetry.Tracer
	}{{"dense", dtr}, {"run", ftr}} {
		fb := side.tr.EventsOf(telemetry.KindStaleFallback)
		if len(fb) != 1 || fb[0].At != want || fb[0].Actor != "a" {
			t.Fatalf("%s: fallback events %v, want one for a at %v", side.name, fb, want)
		}
		if n := side.tr.Count(telemetry.CtrStaleFallbacks); n != 1 {
			t.Fatalf("%s: stale_fallbacks = %d, want 1", side.name, n)
		}
		if n := side.tr.Count(telemetry.CtrSteps) + side.tr.Count(telemetry.CtrSkippedTicks); n != 100 {
			t.Fatalf("%s: steps + skipped ticks = %d, want 100", side.name, n)
		}
	}
	if n := dtr.Count(telemetry.CtrSkippedTicks); n != 0 {
		t.Fatalf("dense: %d ticks skipped", n)
	}
	jumps := ftr.EventsOf(telemetry.KindFastForward)
	if len(jumps) == 0 {
		t.Fatal("run: no fast-forward across the idle span")
	}
	if jumps[0].At != next-ff.Tick() {
		t.Fatalf("run: first jump ends at %v, want one tick short of the monitor's event at %v", jumps[0].At, next)
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
// EnableTelemetry counts its kernel steps, fast-forwards and scheduler
// ticks, and records no events (here, fast-forwards and a throttle
// transition that a ring would hold).
func TestHostCountsWithoutTelemetry(t *testing.T) {
	h := newHost()
	h.Run(100 * time.Millisecond) // idle: fast-forwarded
	c := h.Runtime.Create(container.Spec{Name: "a", CPUQuotaUS: 50_000, CPUPeriodUS: 100_000})
	h.Sched.SetRunnable(h.Sched.NewTask(c.Cgroup.CPU, "spin"), true)
	h.Run(50 * time.Millisecond) // busy: dense steps, throttled
	tr := h.Trace
	for _, ctr := range []telemetry.Counter{telemetry.CtrSteps, telemetry.CtrFastForwards, telemetry.CtrSchedTicks} {
		if tr.Count(ctr) == 0 {
			t.Errorf("%v = 0 on a host without EnableTelemetry", ctr)
		}
	}
	if tr.Emitted() != 0 || tr.Events() != nil {
		t.Fatalf("host without EnableTelemetry recorded %d events", tr.Emitted())
	}
}
