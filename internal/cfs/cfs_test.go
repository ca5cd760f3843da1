package cfs

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"arv/internal/telemetry"
	"arv/internal/units"
)

const tick = time.Millisecond

func run(s *Scheduler, d time.Duration) {
	var now time.Duration
	for now < d {
		now += tick
		s.Tick(now, tick)
	}
}

func newBusyGroup(s *Scheduler, name string, tasks int) *Group {
	g := s.NewGroup(name)
	for i := 0; i < tasks; i++ {
		t := s.NewTask(g, name)
		s.SetRunnable(t, true)
	}
	return g
}

func TestSingleTaskGetsOneCPU(t *testing.T) {
	s := NewScheduler(4)
	g := newBusyGroup(s, "a", 1)
	run(s, time.Second)
	if got := float64(g.Usage()); math.Abs(got-1.0) > 1e-6 {
		t.Fatalf("single task usage = %v CPU-s over 1s, want 1", got)
	}
	if slack := s.SlackLast(); math.Abs(slack-3.0) > 1e-6 {
		t.Fatalf("slack = %v, want 3", slack)
	}
}

func TestEqualSharesSplitEqually(t *testing.T) {
	s := NewScheduler(4)
	a := newBusyGroup(s, "a", 8)
	b := newBusyGroup(s, "b", 8)
	run(s, time.Second)
	if math.Abs(float64(a.Usage())-2.0) > 1e-6 || math.Abs(float64(b.Usage())-2.0) > 1e-6 {
		t.Fatalf("usage a=%v b=%v, want 2 each", a.Usage(), b.Usage())
	}
}

func TestSharesWeighting(t *testing.T) {
	s := NewScheduler(6)
	a := newBusyGroup(s, "a", 6)
	b := newBusyGroup(s, "b", 6)
	a.Shares = 2048 // 2:1
	run(s, time.Second)
	if math.Abs(float64(a.Usage())-4.0) > 1e-6 || math.Abs(float64(b.Usage())-2.0) > 1e-6 {
		t.Fatalf("usage a=%v b=%v, want 4 and 2", a.Usage(), b.Usage())
	}
}

func TestQuotaThrottles(t *testing.T) {
	s := NewScheduler(8)
	g := newBusyGroup(s, "a", 8)
	g.QuotaUS, g.PeriodUS = 200_000, 100_000 // 2 CPUs
	run(s, time.Second)
	if math.Abs(float64(g.Usage())-2.0) > 1e-6 {
		t.Fatalf("quota-capped usage = %v, want 2", g.Usage())
	}
	if g.ThrottledTime() == 0 {
		t.Fatal("expected throttled time to accumulate")
	}
}

func TestCpusetCaps(t *testing.T) {
	s := NewScheduler(8)
	g := newBusyGroup(s, "a", 8)
	g.CpusetN = 3
	run(s, time.Second)
	if math.Abs(float64(g.Usage())-3.0) > 1e-6 {
		t.Fatalf("cpuset-capped usage = %v, want 3", g.Usage())
	}
}

func TestWorkConservation(t *testing.T) {
	// One capped group; the other may exceed its fair share.
	s := NewScheduler(4)
	a := newBusyGroup(s, "a", 4)
	b := newBusyGroup(s, "b", 4)
	a.QuotaUS, a.PeriodUS = 100_000, 100_000 // 1 CPU
	run(s, time.Second)
	if math.Abs(float64(a.Usage())-1.0) > 1e-6 {
		t.Fatalf("capped group usage = %v, want 1", a.Usage())
	}
	if math.Abs(float64(b.Usage())-3.0) > 1e-6 {
		t.Fatalf("uncapped group should absorb slack: usage = %v, want 3", b.Usage())
	}
}

func TestTaskCapOneCPU(t *testing.T) {
	s := NewScheduler(8)
	g := newBusyGroup(s, "a", 2)
	run(s, time.Second)
	if math.Abs(float64(g.Usage())-2.0) > 1e-6 {
		t.Fatalf("2 tasks on 8 CPUs: usage = %v, want 2 (1 CPU per task)", g.Usage())
	}
}

func TestBlockedTasksGetNothing(t *testing.T) {
	s := NewScheduler(4)
	g := s.NewGroup("a")
	task := s.NewTask(g, "t")
	run(s, 100*time.Millisecond)
	if g.Usage() != 0 {
		t.Fatalf("blocked task consumed %v", g.Usage())
	}
	s.SetRunnable(task, true)
	run(s, 100*time.Millisecond)
	if g.Usage() == 0 {
		t.Fatal("woken task consumed nothing")
	}
}

// busyTeam creates a team of n runnable members in g whose callback
// accumulates the members' useful and raw CPU time, one member at a
// time.
func busyTeam(s *Scheduler, g *Group, gamma float64, n int, useful, raw *units.CPUSeconds) {
	tm := s.NewTeam(g, gamma, func(now time.Duration, n int, u, r units.CPUSeconds) {
		for k := 0; k < n; k++ {
			*useful += u
			*raw += r
		}
	})
	for i := 0; i < n; i++ {
		s.SetRunnable(s.NewTeamTask(tm, g.Name), true)
	}
}

func TestOversubscriptionPenalty(t *testing.T) {
	s := NewScheduler(2)
	g := s.NewGroup("a")
	g.Gamma = 0.5
	var useful, raw units.CPUSeconds
	busyTeam(s, g, 0, 8, &useful, &raw) // 8 tasks on 2 CPUs: r = 4
	run(s, time.Second)
	eff := float64(useful) / float64(raw)
	want := 1 / (1 + 0.5*3) // r-1 = 3
	if math.Abs(eff-want) > 1e-6 {
		t.Fatalf("efficiency = %v, want %v", eff, want)
	}
}

func TestTeamGammaOverride(t *testing.T) {
	s := NewScheduler(1)
	g := newBusyGroup(s, "a", 2)
	g.Gamma = 0.9
	var usefulA, usefulB, rawA, rawB units.CPUSeconds
	busyTeam(s, g, 0.1, 1, &usefulA, &rawA) // r = 4 with the plain pair
	busyTeam(s, g, 0, 1, &usefulB, &rawB)
	run(s, time.Second)
	effA := float64(usefulA) / float64(rawA)
	if want := 1 / (1 + 0.1*3.0); math.Abs(effA-want) > 1e-6 {
		t.Fatalf("team gamma override: eff = %v, want %v", effA, want)
	}
	if usefulB >= usefulA {
		t.Fatal("high-gamma team should get less useful work than low-gamma peer")
	}
}

// TestTeamCallbackCounts pins the call protocol: one call per tick per
// team with runnable members, n = the live runnable count, creation
// order, and nothing for teams whose members are all blocked.
func TestTeamCallbackCounts(t *testing.T) {
	for _, oracle := range []bool{false, true} {
		s := NewScheduler(8)
		if oracle {
			UseRebuildOracle(s)
		}
		g := s.NewGroup("g")
		var order []string
		var ns []int
		team := func(name string, members, wake int) []*Task {
			tm := s.NewTeam(g, 0, func(now time.Duration, n int, u, r units.CPUSeconds) {
				order = append(order, name)
				ns = append(ns, n)
			})
			var ts []*Task
			for i := 0; i < members; i++ {
				task := s.NewTeamTask(tm, name)
				if i < wake {
					s.SetRunnable(task, true)
				}
				ts = append(ts, task)
			}
			return ts
		}
		a := team("a", 3, 3)
		team("b", 2, 0)
		team("c", 4, 2)
		s.Tick(tick, tick)
		if got := fmt.Sprint(order, ns); got != "[a c] [3 2]" {
			t.Fatalf("oracle=%v: calls %s, want [a c] [3 2]", oracle, got)
		}
		order, ns = nil, nil
		s.SetRunnable(a[1], false)
		s.Tick(2*tick, tick)
		if got := fmt.Sprint(order, ns); got != "[a c] [2 2]" {
			t.Fatalf("oracle=%v: after a block, calls %s, want [a c] [2 2]", oracle, got)
		}
	}
}

// TestCallbackRemovingSiblingFiresEachTeamOnce is the regression test
// for a callback that removes a sibling task of its group mid-tick: the
// removal must neither run the removed task's callback nor run a later
// sibling's twice in that tick.
func TestCallbackRemovingSiblingFiresEachTeamOnce(t *testing.T) {
	for _, oracle := range []bool{false, true} {
		s := NewScheduler(4)
		if oracle {
			UseRebuildOracle(s)
		}
		g := s.NewGroup("g")
		fired := map[string]int{}
		var b *Task
		teamOfOne := func(name string, fn func()) {
			tm := s.NewTeam(g, 0, func(now time.Duration, n int, u, r units.CPUSeconds) {
				fired[name] += n
				if fn != nil {
					fn()
				}
			})
			task := s.NewTeamTask(tm, name)
			s.SetRunnable(task, true)
			if name == "b" {
				b = task
			}
		}
		teamOfOne("a", func() {
			if !b.removed {
				s.RemoveTask(b)
			}
		})
		teamOfOne("b", nil)
		teamOfOne("c", nil)
		s.Tick(tick, tick)
		if fired["a"] != 1 || fired["b"] != 0 || fired["c"] != 1 {
			t.Fatalf("oracle=%v: fired %v, want a once, b never, c once", oracle, fired)
		}
	}
}

func TestThrottledGroupLoadContribution(t *testing.T) {
	// 20 runnable tasks in a 4-CPU quota group contribute ~4 to load,
	// not 20 (Linux dequeues throttled groups).
	s := NewScheduler(20)
	g := newBusyGroup(s, "a", 20)
	g.QuotaUS, g.PeriodUS = 400_000, 100_000
	run(s, 8*time.Second) // eight load-average time constants
	if la := s.LoadAvg(); math.Abs(la-4.0) > 0.2 {
		t.Fatalf("loadavg = %v, want ~4 for a throttled 20-task group", la)
	}
}

func TestUnthrottledLoadCountsAllRunnable(t *testing.T) {
	s := NewScheduler(4)
	newBusyGroup(s, "a", 16)
	run(s, 8*time.Second) // eight load-average time constants
	if la := s.LoadAvg(); math.Abs(la-16.0) > 0.5 {
		t.Fatalf("loadavg = %v, want ~16 for runqueue-waiting tasks", la)
	}
}

func TestSchedPeriod(t *testing.T) {
	s := NewScheduler(4)
	newBusyGroup(s, "a", 4)
	run(s, tick)
	if p := s.SchedPeriod(); p != 24*time.Millisecond {
		t.Fatalf("period with 4 tasks = %v, want 24ms", p)
	}
	newBusyGroup(s, "b", 8)
	run(s, tick)
	if p := s.SchedPeriod(); p != 36*time.Millisecond {
		t.Fatalf("period with 12 tasks = %v, want 36ms", p)
	}
}

func TestWindowUsageAndSlack(t *testing.T) {
	s := NewScheduler(4)
	g := newBusyGroup(s, "a", 2)
	run(s, time.Second)
	s.SettleWindows()
	if u := s.TakeWindowAt(g.Index()); math.Abs(float64(u)-2.0) > 1e-6 {
		t.Fatalf("window usage = %v, want 2", u)
	}
	s.SettleWindows()
	if u := s.TakeWindowAt(g.Index()); u != 0 {
		t.Fatalf("window not reset: %v", u)
	}
	if sl := s.TakeWindowSlack(); math.Abs(float64(sl)-2.0) > 1e-6 {
		t.Fatalf("window slack = %v, want 2", sl)
	}
	if sl := s.TakeWindowSlack(); sl != 0 {
		t.Fatalf("slack window not reset: %v", sl)
	}
}

func TestRemoveTaskAndGroup(t *testing.T) {
	s := NewScheduler(4)
	g := newBusyGroup(s, "a", 3)
	s.RemoveTask(g.tasks[0])
	if len(g.tasks) != 2 {
		t.Fatalf("tasks after removal = %d", len(g.tasks))
	}
	s.RemoveGroup(g)
	if len(s.Groups()) != 0 {
		t.Fatal("group not removed")
	}
	run(s, 10*time.Millisecond) // must not panic
}

func TestWakingRemovedTaskPanics(t *testing.T) {
	s := NewScheduler(1)
	g := s.NewGroup("a")
	task := s.NewTask(g, "t")
	s.RemoveTask(task)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic waking removed task")
		}
	}()
	s.SetRunnable(task, true)
}

// TestAllocationConservationProperty: for random configurations, the
// scheduler never allocates more than NCPU total, never exceeds any
// group's cap, and work-conserves (slack only when every group is
// saturated).
func TestAllocationConservationProperty(t *testing.T) {
	f := func(seed uint8) bool {
		ncpu := int(seed%15) + 2
		s := NewScheduler(ncpu)
		ngroups := int(seed%4) + 1
		groups := make([]*Group, ngroups)
		for i := 0; i < ngroups; i++ {
			tasks := (int(seed)*(i+3))%9 + 1
			groups[i] = newBusyGroup(s, "g", tasks)
			groups[i].Shares = int64(1024 * (i + 1))
			if i%2 == 0 {
				groups[i].QuotaUS = int64(100_000 * (i + 1))
				groups[i].PeriodUS = 100_000
			}
		}
		s.Tick(tick, tick)
		var total float64
		saturated := true
		for _, g := range groups {
			r := g.LastRate()
			total += r
			cap := float64(g.RunnableTasks())
			if lim := g.CPULimit(); lim < cap {
				cap = lim
			}
			if r > cap+1e-9 {
				return false // exceeded cap
			}
			if r < cap-1e-9 {
				saturated = false
			}
		}
		if total > float64(ncpu)+1e-9 {
			return false
		}
		if total < float64(ncpu)-1e-9 && !saturated {
			return false // left capacity while a group wanted more
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStaticCPUs(t *testing.T) {
	const host = 16
	cases := []struct {
		name            string
		cpuset          int
		quotaUS, period int64
		want            int
	}{
		{"cpuset smaller than quota", 2, 800_000, 100_000, 2},
		{"cpuset larger than quota", 8, 200_000, 100_000, 8},
		{"2.5-CPU quota", 0, 250_000, 100_000, 2},
		{"0.3-CPU quota", 0, 30_000, 100_000, 1},
		{"quota above host", 0, 2_400_000, 100_000, 24},
		{"unlimited", 0, -1, 100_000, host},
	}
	s := NewScheduler(host)
	for _, c := range cases {
		g := s.NewGroup(c.name)
		s.SetCpuset(g, c.cpuset)
		s.SetQuota(g, c.quotaUS, c.period)
		if got := g.StaticCPUs(host); got != c.want {
			t.Errorf("%s: StaticCPUs(%d) = %d, want %d", c.name, host, got, c.want)
		}
	}
}

// TestNewSchedulerCounts: a scheduler built on its own counts its ticks
// on the ring-less tracer NewScheduler gives it, and records no events
// (here, the throttle transition of a group bound by its quota).
func TestNewSchedulerCounts(t *testing.T) {
	s := NewScheduler(2)
	g := s.NewGroup("g")
	s.SetQuota(g, 50_000, 100_000)
	s.SetRunnable(s.NewTask(g, "t"), true)
	run(s, 5*tick)
	if !g.Throttled() {
		t.Fatal("group is not throttled")
	}
	if got := s.Trace.Count(telemetry.CtrSchedTicks); got != 5 {
		t.Fatalf("sched.ticks = %d, want 5", got)
	}
	if s.Trace.Emitted() != 0 || s.Trace.Events() != nil {
		t.Fatalf("ring-less tracer recorded %d events", s.Trace.Emitted())
	}
}
