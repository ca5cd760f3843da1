package cfs

import (
	"fmt"
	"testing"
	"time"

	"arv/internal/units"
)

// BenchmarkSchedulerRebuild measures one full rebuild tick, the path
// every repair escalation and every rebuild-oracle tick takes, over 4096
// groups: 512 pods of three children each and 2048 top-level leaves on
// a 64-CPU host. Every pod and every fourth leaf has a quota below its
// fair share, and every other leaf runs a two-member team with a
// callback. Each tick recomputes every cap, reruns both water-fill
// levels, and walks every group through the throttle rule (1024 groups
// bound by their own quota, 1536 by their pod's, 1536 unbound) and the
// team callbacks.
func BenchmarkSchedulerRebuild(b *testing.B) {
	s := newOracleScheduler(64)
	noop := func(time.Duration, int, units.CPUSeconds, units.CPUSeconds) {}
	leaf := func(g *Group, k int) {
		if k%4 == 0 {
			s.SetQuota(g, 1_000, 100_000)
		}
		if k%2 == 0 {
			tm := s.NewTeam(g, 0.1, noop)
			for j := 0; j < 2; j++ {
				s.SetRunnable(s.NewTeamTask(tm, g.Name), true)
			}
			return
		}
		s.SetRunnable(s.NewTask(g, g.Name), true)
	}
	k := 0
	for i := 0; i < 512; i++ {
		pod := s.NewGroup(fmt.Sprintf("pod%d", i))
		s.SetQuota(pod, 2_000, 100_000)
		for j := 0; j < 3; j++ {
			leaf(s.NewChildGroup(pod, fmt.Sprintf("pod%d-c%d", i, j)), k)
			k++
		}
	}
	for i := 0; i < 2048; i++ {
		leaf(s.NewGroup(fmt.Sprintf("g%d", i)), k)
		k++
	}
	var now time.Duration
	for i := 0; i < 3; i++ {
		now += time.Millisecond
		s.Tick(now, time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += time.Millisecond
		s.Tick(now, time.Millisecond)
	}
}
