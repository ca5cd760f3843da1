package jvm

import (
	"testing"
	"time"

	"arv/internal/cfs"
	"arv/internal/cgroups"
	"arv/internal/container"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/sysfs"
	"arv/internal/sysns"
	"arv/internal/units"
)

func newCtr(t *testing.T, spec container.Spec, peers int) *container.Container {
	t.Helper()
	sched := cfs.NewScheduler(20)
	mem := memctl.New(memctl.Config{Total: 128 * units.GiB})
	hier := cgroups.NewHierarchy(sched, mem)
	mon := sysns.NewMonitor(hier, sim.NewClock(time.Millisecond), sysns.Options{})
	res := sysfs.NewResolver(&sysfs.HostView{Sched: sched, Mem: mem})
	rt := container.NewRuntime(hier, mon, res)
	c := rt.Create(spec)
	for i := 0; i < peers; i++ {
		rt.Create(container.Spec{Name: string(rune('p' + i))})
	}
	c.Exec("java")
	return c
}

func TestNParallelGCThreads(t *testing.T) {
	cases := map[int]int{
		0: 1, 1: 1, 4: 4, 8: 8,
		10: 10, // 8 + ceil(2*5/8) = 10
		16: 13, // 8 + 5
		20: 16, // 8 + ceil(12*5/8) = 8+8
	}
	for in, want := range cases {
		if got := NParallelGCThreads(in); got != want {
			t.Errorf("NParallelGCThreads(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestLaunchCPUsVanillaIgnoresLimits(t *testing.T) {
	c := newCtr(t, container.Spec{Name: "a", CpusetCPUs: 2}, 0)
	if got := launchCPUs(Vanilla8, c, 20); got != 20 {
		t.Fatalf("vanilla launch CPUs = %d, want host 20", got)
	}
	if got := launchCPUs(Adaptive, c, 20); got != 20 {
		t.Fatalf("adaptive launch CPUs = %d, want host 20 (expansion potential)", got)
	}
}

func TestLaunchCPUsJDK9Detection(t *testing.T) {
	cases := []struct {
		name string
		spec container.Spec
		want int
	}{
		// Affinity first, whether it is below or above the quota.
		{"cpuset below quota", container.Spec{CpusetCPUs: 2, CPUQuotaUS: 800_000, CPUPeriodUS: 100_000}, 2},
		{"cpuset above quota", container.Spec{CpusetCPUs: 8, CPUQuotaUS: 200_000, CPUPeriodUS: 100_000}, 8},
		// Quota next: floor(quota/period), at least one.
		{"quota", container.Spec{CPUQuotaUS: 800_000, CPUPeriodUS: 100_000}, 8},
		{"2.5-CPU quota", container.Spec{CPUQuotaUS: 250_000, CPUPeriodUS: 100_000}, 2},
		{"0.3-CPU quota", container.Spec{CPUQuotaUS: 30_000, CPUPeriodUS: 100_000}, 1},
		// Nothing: host.
		{"unconstrained", container.Spec{}, 20},
	}
	for _, tc := range cases {
		tc.spec.Name = "a"
		c := newCtr(t, tc.spec, 0)
		if got := launchCPUs(JDK9, c, 20); got != tc.want {
			t.Errorf("JDK9 %s = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestLaunchCPUsJDK10UsesShares(t *testing.T) {
	// Ten equal-share containers on 20 cores: share-derived count is 2
	// (the paper's JVM10 observation in Fig. 8).
	c := newCtr(t, container.Spec{Name: "a"}, 9)
	if got := launchCPUs(JDK10, c, 20); got != 2 {
		t.Fatalf("JDK10 share-derived CPUs = %d, want 2", got)
	}
}

func TestAutoMaxHeap(t *testing.T) {
	hostMem := 128 * units.GiB
	c := newCtr(t, container.Spec{Name: "a", MemHard: units.GiB}, 0)
	if got := autoMaxHeap(Vanilla8, c, hostMem); got != 32*units.GiB {
		t.Fatalf("JDK8 auto heap = %v, want host/4", got)
	}
	if got := autoMaxHeap(JDK9, c, hostMem); got != 256*units.MiB {
		t.Fatalf("JDK9 auto heap = %v, want hard/4", got)
	}
	unlimited := newCtr(t, container.Spec{Name: "b"}, 0)
	if got := autoMaxHeap(JDK9, unlimited, hostMem); got != 32*units.GiB {
		t.Fatalf("JDK9 without limit = %v, want host/4", got)
	}
}

func TestActiveWorkers(t *testing.T) {
	cases := []struct {
		pool, mutators int
		heap           units.Bytes
		want           int
	}{
		{16, 16, 2 * units.GiB, 16}, // unconstrained
		{16, 1, 2 * units.GiB, 2},   // mutator-bound
		{16, 16, 60 * units.MiB, 3}, // heap-bound: 60/24+1
		{16, 0, units.MiB, 1},       // floor at 1
		{2, 16, 10 * units.GiB, 2},  // pool-bound
	}
	for _, c := range cases {
		if got := activeWorkers(c.pool, c.mutators, c.heap); got != c.want {
			t.Errorf("activeWorkers(%d,%d,%v) = %d, want %d", c.pool, c.mutators, c.heap, got, c.want)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[PolicyKind]string{
		Vanilla8: "vanilla", Dynamic8: "dynamic", JDK9: "jvm9",
		JDK10: "jvm10", Adaptive: "adaptive", OptFixed: "opt",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestDynamicThreadsFlag(t *testing.T) {
	if Vanilla8.dynamicThreads() || OptFixed.dynamicThreads() {
		t.Fatal("static policies must not use dynamic threads")
	}
	for _, p := range []PolicyKind{Dynamic8, JDK9, JDK10, Adaptive} {
		if !p.dynamicThreads() {
			t.Fatalf("%v must use dynamic threads", p)
		}
	}
}
