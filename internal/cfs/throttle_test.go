package cfs

import (
	"fmt"
	"testing"
	"time"

	"arv/internal/telemetry"
	"arv/internal/units"
)

// TestThrottleRulesExact pins the throttle rules with hand-computed
// values, with no oracle: the rebuild oracle walks every group through
// the same per-group body as repair, so the mirror tests cannot catch a
// fault in that body. Four cases are held through four tick kinds: a pod
// bound by its own quota (throttled, accrues ThrottledTime), a child
// bound only by its parent's quota (throttled, accrues nothing), a child
// bound by its own quota (throttled, accrues), and an unbound group. The
// ticks are the first tick's repair, a repair after cap-moving SetQuota
// writes, a repair after cap-preserving SetQuota writes that move only
// throttle state, quiet ticks, and a storm repair of every group;
// telemetry confirms each tick's regime and that none is a rebuild.
// Every rate is a dyadic rational, so the water fills are exact and the
// rates compare with ==.
func TestThrottleRulesExact(t *testing.T) {
	s := NewScheduler(6)
	tr := s.Trace
	lim := func(g *Group, cpus float64) { s.SetQuota(g, int64(cpus*100_000), 100_000) }
	tasks := func(g *Group, n int) {
		for i := 0; i < n; i++ {
			s.SetRunnable(s.NewTask(g, g.Name), true)
		}
	}

	// P is a pod bound by its quota of 2 CPUs. c1's four tasks are a
	// team with a callback (an eager group); P's limit is all that holds
	// c1 back. c2 is bound by its own 0.5-CPU quota. U has four tasks on
	// a 3-CPU cpuset and no quota, and contends for the host with P and
	// Q. Q is an unlimited pod with one task in each child; the quiet
	// tick's writes bind it and q2.
	p := s.NewGroup("P")
	c1 := s.NewChildGroup(p, "c1")
	c2 := s.NewChildGroup(p, "c2")
	u := s.NewGroup("U")
	q := s.NewGroup("Q")
	q1 := s.NewChildGroup(q, "q1")
	q2 := s.NewChildGroup(q, "q2")
	lim(p, 2)
	lim(c2, 0.5)
	s.SetCpuset(u, 3)
	calls := 0
	team := s.NewTeam(c1, 0, func(time.Duration, int, units.CPUSeconds, units.CPUSeconds) { calls++ })
	for i := 0; i < 4; i++ {
		s.SetRunnable(s.NewTeamTask(team, "c1"), true)
	}
	tasks(c2, 4)
	tasks(u, 4)
	tasks(q1, 1)
	tasks(q2, 1)
	idle := make([]*Task, 64)
	for i := range idle {
		idle[i] = s.NewTask(s.NewGroup(fmt.Sprintf("idle%d", i)), "t")
	}

	groups := []*Group{p, c1, c2, u, q, q1, q2}
	// want holds each group's expected rate, throttle flag and
	// ThrottledTime; usage replays the expected accrual tick by tick, and
	// ownBound marks the groups whose own limit binds (they accrue
	// ThrottledTime).
	type state struct {
		rate      float64
		throttled bool
		dur       time.Duration
	}
	want := map[*Group]*state{}
	usage := map[*Group]units.CPUSeconds{}
	for _, g := range groups {
		want[g] = &state{}
	}
	set := func(g *Group, rate float64, throttled bool) {
		want[g].rate, want[g].throttled = rate, throttled
	}
	ownBound := map[*Group]bool{}

	var now time.Duration
	step := func(regime string) {
		t.Helper()
		rep, reb := tr.Count(telemetry.CtrTickRepairs), tr.Count(telemetry.CtrTickRebuilds)
		now += tick
		s.Tick(now, tick)
		got := [2]uint64{tr.Count(telemetry.CtrTickRepairs) - rep, tr.Count(telemetry.CtrTickRebuilds) - reb}
		wantRegime := map[string][2]uint64{
			"quiet":  {0, 0},
			"repair": {1, 0},
		}[regime]
		if got != wantRegime {
			t.Fatalf("tick %v: (repairs, rebuilds) = %v, want a %s tick %v", now, got, regime, wantRegime)
		}
		for _, g := range groups {
			w := want[g]
			usage[g] += units.CPUSeconds(w.rate * tick.Seconds())
			if ownBound[g] {
				w.dur += tick
			}
			if r := g.LastRate(); r != w.rate {
				t.Errorf("tick %v (%s): %s rate %v, want %v", now, regime, g.Name, r, w.rate)
			}
			if g.Throttled() != w.throttled {
				t.Errorf("tick %v (%s): %s throttled %v, want %v", now, regime, g.Name, g.Throttled(), w.throttled)
			}
			if d := g.ThrottledTime(); d != w.dur {
				t.Errorf("tick %v (%s): %s ThrottledTime %v, want %v", now, regime, g.Name, d, w.dur)
			}
			if got := g.Usage(); got != usage[g] {
				t.Errorf("tick %v (%s): %s usage %v, want %v", now, regime, g.Name, got, usage[g])
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}

	// Tops P (cap 2), U (cap 3) and Q (cap 2) share 6 CPUs: P and Q
	// saturate, U gets the remaining 2. P's 2 CPUs fill c2 to its 0.5
	// cap and c1 to 1.5; Q's 2 give q1 and q2 one CPU each.
	set(p, 2, true)
	set(c1, 1.5, true)
	set(c2, 0.5, true)
	set(u, 2, false)
	set(q, 2, false)
	set(q1, 1, false)
	set(q2, 1, false)
	ownBound[p], ownBound[c2] = true, true
	step("repair")
	step("quiet")
	step("quiet")

	// Cap-moving writes: P's quota to 1.5 and c2's to 0.25. U's share
	// of the top fill grows to 2.5, and c1 takes 1.25 of P's grant. P,
	// c1, c2 and U are all walked by the repair; the cases hold.
	lim(p, 1.5)
	lim(c2, 0.25)
	set(p, 1.5, true)
	set(c1, 1.25, true)
	set(c2, 0.25, true)
	set(u, 2.5, false)
	step("repair")

	// Cap-preserving writes queue a repair like any other limit write;
	// no rate moves. U's and c1's new limits sit at their caps (3 and 4)
	// but above their rates, so U stays unbound and c1 stays bound only
	// by P. Q's and q2's new limits land on their rates, so both bind
	// and accrue from this tick on, and q1 is throttled by Q alone.
	lim(u, 3)
	lim(c1, 4)
	lim(q, 2)
	lim(q2, 1)
	set(q, 2, true)
	set(q1, 1, true)
	set(q2, 1, true)
	ownBound[q], ownBound[q2] = true, true
	step("repair")

	// A storm: toggling the idle groups and rewriting every other
	// group's cpuset with its current value queues every group for
	// repair; no rate or throttle state moves.
	for _, task := range idle {
		s.SetRunnable(task, true)
		s.SetRunnable(task, false)
	}
	for _, g := range groups {
		s.SetCpuset(g, g.CpusetN)
	}
	if len(s.dirty) != len(s.groups) {
		t.Fatalf("storm queued %d of %d groups", len(s.dirty), len(s.groups))
	}
	step("repair")
	for i := 0; i < 3; i++ {
		step("quiet")
	}
	if calls != 9 {
		t.Fatalf("c1's team callback ran %d times in 9 ticks", calls)
	}
}
