package sysns

import (
	"fmt"
	"testing"
	"time"

	"arv/internal/cgroups"
	"arv/internal/units"
)

// TestWindowIndexFollowsCompaction: the update round reads each
// namespace's CPU window by the scheduler index its cold slot caches,
// and a RemoveGroup compaction moves every later group down by one.
// Survivors alternate busy (10 runnable tasks under a 10-CPU quota) and
// idle on a 64-CPU host with slack left over, so each round a busy
// view's E_CPU steps up by one and an idle one stays at its lower bound,
// where every view starts. Between rounds, one container at the front
// of the attach order and one in the middle are destroyed; they hold 2
// shares each, so no survivor's bounds move. A window read from a
// shifted index lands on a neighbour with the opposite load and shows
// up as a wrong step.
func TestWindowIndexFollowsCompaction(t *testing.T) {
	f := newFixture(64, 64*units.GiB)
	type member struct {
		cg   *cgroups.Cgroup
		ns   *SysNamespace
		busy bool
	}
	var members []member
	var front, middle *cgroups.Cgroup
	for i := 0; i < 14; i++ {
		cg, ns := f.attach(fmt.Sprintf("c%d", i))
		switch i {
		case 0:
			front = cg
			cg.SetShares(2)
			continue
		case 7:
			middle = cg
			cg.SetShares(2)
			continue
		}
		busy := len(members)%2 == 0
		if busy {
			cg.SetQuotaCPUs(10)
			for k := 0; k < 10; k++ {
				f.sched.SetRunnable(f.sched.NewTask(cg.CPU, "spin"), true)
			}
		}
		members = append(members, member{cg, ns, busy})
	}

	// Every view starts from its guaranteed share (an earlier attach
	// initialized it against fewer containers).
	for _, mb := range members {
		mb.ns.CPUBounds() // flush the marks before writing slot state
		mb.ns.slotCPU().eCPU = mb.ns.slotCPU().lowerCPU
	}

	const period = 24 * time.Millisecond
	now := f.clock.Now()
	round := func(r int) {
		t.Helper()
		before := make([]int, len(members))
		for i, mb := range members {
			before[i] = mb.ns.EffectiveCPU()
		}
		for k := 0; k < int(period/time.Millisecond); k++ {
			now += time.Millisecond
			f.sched.Tick(now, time.Millisecond)
		}
		if f.sched.SlackLast() <= 0 {
			t.Fatalf("round %d: no slack, E_CPU cannot grow", r)
		}
		f.mon.UpdateAll(now)
		for i, mb := range members {
			lower, upper := mb.ns.CPUBounds()
			got := mb.ns.EffectiveCPU()
			want := lower
			if mb.busy {
				want = min(before[i]+1, upper)
			}
			if got != want {
				t.Fatalf("round %d: %s (busy=%v) E_CPU = %d, want %d (was %d, bounds [%d, %d])",
					r, mb.cg.Name, mb.busy, got, want, before[i], lower, upper)
			}
			if c := f.mon.nsCold[mb.ns.slot]; int(c.cpuIdx) != mb.cg.CPU.Index() {
				t.Fatalf("round %d: %s caches index %d, group is at %d", r, mb.cg.Name, c.cpuIdx, mb.cg.CPU.Index())
			}
		}
	}

	round(0)
	f.hier.Remove(front)
	round(1)
	f.hier.Remove(middle)
	round(2)
	round(3)
	for _, mb := range members {
		if lower, _ := mb.ns.CPUBounds(); mb.busy && mb.ns.EffectiveCPU() != lower+4 {
			t.Fatalf("%s E_CPU = %d after four busy rounds, want %d", mb.cg.Name, mb.ns.EffectiveCPU(), lower+4)
		}
	}
}
