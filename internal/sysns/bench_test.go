package sysns

import (
	"fmt"
	"testing"
	"time"

	"arv/internal/cfs"
	"arv/internal/cgroups"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/units"
)

// BenchmarkMonitorMarkStorm measures ns_monitor's marks under a storm
// of limit events: 1 024 flat containers on a 64-CPU host, each of which
// takes four quota writes per iteration, followed by one bounds read
// that flushes them. Every write marks its container's top, so an
// iteration makes 4 096 marks of 1 024 distinct tops; the timed loop
// includes the writes, their event delivery and the flush. No workload
// makes marks at this rate: scalebench churns one quota per container
// every 250 ms.
func BenchmarkMonitorMarkStorm(b *testing.B) {
	const n, writes = 1024, 4
	hier := cgroups.NewHierarchy(cfs.NewScheduler(64), memctl.New(memctl.Config{Total: 256 * units.GiB}))
	mon := NewMonitor(hier, sim.NewClock(time.Millisecond), Options{})
	cgs := make([]*cgroups.Cgroup, n)
	for i := range cgs {
		cgs[i] = hier.Create(fmt.Sprintf("c%d", i))
		mon.Attach(cgs[i])
	}
	ns := mon.nsOf(cgs[0])
	storm := func() {
		for _, cg := range cgs {
			for w := 1; w <= writes; w++ {
				cg.SetQuota(int64(w)*100_000, 100_000)
			}
		}
		ns.CPUBounds()
	}
	ns.CPUBounds() // flushes the build's marks
	storm()        // grows dirtyTops to its steady size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		storm()
	}
}
