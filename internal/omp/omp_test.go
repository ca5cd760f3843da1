package omp

import (
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/units"
)

func testKernel() Kernel {
	return Kernel{
		Name:          "k",
		Regions:       5,
		WorkPerRegion: 2,
		SerialFrac:    0.1,
		SpawnCost:     0.001,
		ResizeCost:    0.01,
		Gamma:         0.5,
	}
}

func newTestHost() *host.Host {
	return host.New(host.Config{CPUs: 8, Memory: 16 * units.GiB, Seed: 1})
}

func start(h *host.Host, spec container.Spec, k Kernel, s Strategy) *Program {
	ctr := h.Runtime.Create(spec)
	ctr.Exec(k.Name)
	p := New(h, ctr, k, s)
	p.Start()
	return p
}

func TestProgramCompletesAllRegions(t *testing.T) {
	h := newTestHost()
	p := start(h, container.Spec{Name: "a"}, testKernel(), Static)
	if !h.RunUntilDone(time.Hour) {
		t.Fatalf("did not finish: %d regions done", p.region)
	}
	if p.region != 5 {
		t.Fatalf("regions done = %d", p.region)
	}
	if p.ExecTime() <= 0 {
		t.Fatal("no exec time")
	}
	if len(p.ThreadTrace) != 5 {
		t.Fatalf("thread trace has %d entries", len(p.ThreadTrace))
	}
}

func TestStaticUsesAllOnlineCPUs(t *testing.T) {
	h := newTestHost()
	p := start(h, container.Spec{Name: "a", CPUQuotaUS: 200_000, CPUPeriodUS: 100_000}, testKernel(), Static)
	h.RunUntilDone(time.Hour)
	for _, n := range p.ThreadTrace {
		if n != 8 {
			t.Fatalf("static spawned %d threads, want 8 (host CPUs)", n)
		}
	}
}

func TestAdaptiveUsesEffectiveCPU(t *testing.T) {
	h := newTestHost()
	p := start(h, container.Spec{Name: "a", CPUQuotaUS: 300_000, CPUPeriodUS: 100_000}, testKernel(), Adaptive)
	h.RunUntilDone(time.Hour)
	for _, n := range p.ThreadTrace {
		if n > 3 {
			t.Fatalf("adaptive spawned %d threads with a 3-CPU quota", n)
		}
	}
}

func TestDynamicSubtractsLoad(t *testing.T) {
	h := newTestHost()
	// Background load: 6 busy tasks in another container.
	bg := h.Runtime.Create(container.Spec{Name: "bg"})
	bg.Exec("hog")
	for i := 0; i < 6; i++ {
		task := h.Sched.NewTask(bg.Cgroup.CPU, "hog")
		h.Sched.SetRunnable(task, true)
	}
	h.Run(5 * time.Second) // let loadavg converge to ~6
	p := start(h, container.Spec{Name: "a"}, testKernel(), Dynamic)
	h.Run(50 * time.Millisecond)
	if n := p.ThreadTrace[0]; n > 3 {
		t.Fatalf("dynamic spawned %d threads at loadavg ~6 on 8 CPUs", n)
	}
}

func TestDynamicNeverBelowOne(t *testing.T) {
	h := newTestHost()
	bg := h.Runtime.Create(container.Spec{Name: "bg"})
	bg.Exec("hog")
	for i := 0; i < 30; i++ {
		task := h.Sched.NewTask(bg.Cgroup.CPU, "hog")
		h.Sched.SetRunnable(task, true)
	}
	h.Run(5 * time.Second)
	p := start(h, container.Spec{Name: "a"}, testKernel(), Dynamic)
	h.Run(50 * time.Millisecond)
	if n := p.ThreadTrace[0]; n < 1 {
		t.Fatalf("dynamic spawned %d threads", n)
	}
}

func TestMoreThreadsFasterOnIdleHost(t *testing.T) {
	// Sanity: on an idle host, the static strategy (8 threads) must beat
	// a serial run of the same kernel.
	h1 := newTestHost()
	p1 := start(h1, container.Spec{Name: "a"}, testKernel(), Static)
	h1.RunUntilDone(time.Hour)

	h2 := newTestHost()
	k := testKernel()
	ctr := h2.Runtime.Create(container.Spec{Name: "a", CpusetCPUs: 1})
	ctr.Exec(k.Name)
	p2 := New(h2, ctr, k, Adaptive) // E_CPU = 1: serial
	p2.Start()
	h2.RunUntilDone(time.Hour)

	if p1.ExecTime() >= p2.ExecTime() {
		t.Fatalf("8 threads (%v) not faster than 1 (%v)", p1.ExecTime(), p2.ExecTime())
	}
}

func TestOverthreadingCostsInsideQuota(t *testing.T) {
	// 8 threads into a 2-CPU quota must be slower than 2 threads.
	run := func(s Strategy) time.Duration {
		h := newTestHost()
		p := start(h, container.Spec{Name: "a", CPUQuotaUS: 200_000, CPUPeriodUS: 100_000}, testKernel(), s)
		h.RunUntilDone(time.Hour)
		return p.ExecTime()
	}
	static := run(Static)     // 8 threads
	adaptive := run(Adaptive) // 2 threads
	if adaptive >= static {
		t.Fatalf("adaptive %v not faster than static %v in quota container", adaptive, static)
	}
}

func TestResizeChurnCosts(t *testing.T) {
	// A kernel whose thread count flips every region pays ResizeCost.
	h := newTestHost()
	k := testKernel()
	k.Regions = 20
	k.ResizeCost = 0.05
	ctr := h.Runtime.Create(container.Spec{Name: "a"})
	ctr.Exec(k.Name)
	p := New(h, ctr, k, Dynamic)
	p.Start()
	// Oscillating load: toggle a bank of background tasks.
	bg := h.Runtime.Create(container.Spec{Name: "bg"})
	bg.Exec("hog")
	h.RunUntilDone(time.Hour)
	stable := p.ExecTime()

	h2 := newTestHost()
	ctr2 := h2.Runtime.Create(container.Spec{Name: "a"})
	ctr2.Exec(k.Name)
	p2 := New(h2, ctr2, k, Adaptive) // constant thread count: no churn
	p2.Start()
	h2.RunUntilDone(time.Hour)
	if p2.ExecTime() > stable {
		t.Fatalf("churn-free run (%v) slower than churning run (%v)", p2.ExecTime(), stable)
	}
}

func TestTotalWork(t *testing.T) {
	k := testKernel()
	if got := k.TotalWork(); got != 10 {
		t.Fatalf("TotalWork = %v", got)
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		Static: "static", Dynamic: "dynamic", Adaptive: "adaptive",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", int(s), s.String())
		}
	}
}

func TestKernelGammaAppliedToGroup(t *testing.T) {
	h := newTestHost()
	k := testKernel()
	k.Gamma = 0.7
	ctr := h.Runtime.Create(container.Spec{Name: "a"})
	ctr.Exec(k.Name)
	New(h, ctr, k, Static).Start()
	if got := ctr.Cgroup.CPU.Gamma; got != 0.7 {
		t.Fatalf("group gamma = %v, want kernel's 0.7", got)
	}
}

func TestStaticLimitsUsesStaticCPUs(t *testing.T) {
	cases := []struct {
		name string
		spec container.Spec
		want int
	}{
		{"cpuset below quota", container.Spec{CpusetCPUs: 3, CPUQuotaUS: 600_000, CPUPeriodUS: 100_000}, 3},
		{"cpuset above quota", container.Spec{CpusetCPUs: 6, CPUQuotaUS: 200_000, CPUPeriodUS: 100_000}, 6},
		{"2.5-CPU quota", container.Spec{CPUQuotaUS: 250_000, CPUPeriodUS: 100_000}, 2},
		{"0.3-CPU quota", container.Spec{CPUQuotaUS: 30_000, CPUPeriodUS: 100_000}, 1},
		// A limit above the host clamps to the 8-thread pool.
		{"quota above pool", container.Spec{CPUQuotaUS: 1_200_000, CPUPeriodUS: 100_000}, 8},
		{"unlimited", container.Spec{}, 8},
	}
	for _, tc := range cases {
		h := newTestHost()
		tc.spec.Name = "a"
		p := start(h, tc.spec, testKernel(), StaticLimits)
		if got := p.ThreadTrace[0]; got != tc.want {
			t.Errorf("%s: StaticLimits opened a region with %d threads, want %d", tc.name, got, tc.want)
		}
	}
}
