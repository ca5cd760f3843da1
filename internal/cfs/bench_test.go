package cfs

import (
	"fmt"
	"testing"
	"time"

	"arv/internal/units"
)

// BenchmarkSchedulerRebuild measures one full rebuild tick, the path
// every rebuild-oracle tick takes, over 4096 groups: 512 pods of three
// children each and 2048 top-level leaves on a 64-CPU host. Every pod
// and every fourth leaf has a quota below its fair share, and every
// other leaf runs a two-member team with a callback. Each tick
// recomputes every cap, reruns both water-fill levels, and walks every
// group through the throttle rule (1024 groups bound by their own
// quota, 1536 by their pod's, 1536 unbound) and the team callbacks.
func BenchmarkSchedulerRebuild(b *testing.B) {
	s := newOracleScheduler(64)
	buildBenchFleet(s)
	benchTicks(b, s, nil)
}

// BenchmarkSchedulerRepairStorm measures the worst case of a production
// scheduler: BenchmarkSchedulerRebuild's fleet with every group queued
// for repair on every tick. Each iteration rewrites every group's
// shares (alternating between two weights, so every fill reruns and
// rates move) and ticks; the timed loop includes the 4096 writes.
func BenchmarkSchedulerRepairStorm(b *testing.B) {
	s := NewScheduler(64)
	groups := buildBenchFleet(s)
	shares := int64(DefaultShares)
	benchTicks(b, s, func() {
		shares ^= 1
		for _, g := range groups {
			s.SetShares(g, shares)
		}
	})
}

// buildBenchFleet builds the 4096-group fleet the scheduler benchmarks
// share (see BenchmarkSchedulerRebuild) and returns its groups.
func buildBenchFleet(s *Scheduler) []*Group {
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
	return s.Groups()
}

// benchTicks runs three warm-up ticks, then times b.N ticks, calling
// before (when non-nil) ahead of each timed and warm-up tick.
func benchTicks(b *testing.B, s *Scheduler, before func()) {
	var now time.Duration
	step := func() {
		if before != nil {
			before()
		}
		now += time.Millisecond
		s.Tick(now, time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
