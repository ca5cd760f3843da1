// Package integration exercises the full stack: host, containers,
// sys_namespace, and the JVM/OpenMP runtimes, checking that the dynamics
// the paper depends on actually emerge from the substrate.
package integration

import (
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/jvm"
	"arv/internal/omp"
	"arv/internal/units"
	"arv/internal/workloads"
)

func newHost(t testing.TB, cpus int, mem units.Bytes) *host.Host {
	t.Helper()
	return host.New(host.Config{CPUs: cpus, Memory: mem, Seed: 42})
}

// runJVMs launches one JVM per container spec and runs to completion.
func runJVMs(t testing.TB, h *host.Host, specs []container.Spec, w jvm.Workload, cfg jvm.Config) []*jvm.JVM {
	t.Helper()
	jvms := make([]*jvm.JVM, 0, len(specs))
	for _, spec := range specs {
		ctr := h.Runtime.Create(spec)
		ctr.Exec("java")
		j := jvm.New(h, ctr, w, cfg)
		j.Start()
		jvms = append(jvms, j)
	}
	if !h.RunUntilDone(30 * time.Minute) {
		t.Fatalf("JVMs did not finish within simulated 30min (progress of first: %.2f)", jvms[0].Progress())
	}
	return jvms
}

func TestSingleJVMCompletes(t *testing.T) {
	h := newHost(t, 20, 128*units.GiB)
	w := workloads.DaCapo("sunflow")
	spec := container.Spec{Name: "c0", Gamma: 0.5}
	jvms := runJVMs(t, h, []container.Spec{spec}, w, jvm.Config{Policy: jvm.Vanilla8, Xmx: 3 * w.MinHeap})
	j := jvms[0]
	if j.Failed() {
		t.Fatalf("JVM failed: %v", j.FailReason())
	}
	if j.Stats.MinorGCs == 0 {
		t.Fatal("expected at least one minor GC")
	}
	t.Logf("exec=%v gc=%v minors=%d majors=%d pool=%d",
		j.Stats.ExecTime(), j.Stats.GCTime, j.Stats.MinorGCs, j.Stats.MajorGCs, j.GCThreadPool())
}

// TestAdaptiveBeatsVanillaUnderContention reproduces the Fig. 6 shape:
// five containers sharing 20 cores, each with a 10-core limit; the
// adaptive JVM (GC threads from E_CPU) must beat vanilla JDK 8 (15 GC
// threads from 20 host CPUs).
func TestAdaptiveBeatsVanillaUnderContention(t *testing.T) {
	run := func(policy jvm.PolicyKind) time.Duration {
		h := newHost(t, 20, 128*units.GiB)
		w := workloads.DaCapo("lusearch")
		specs := make([]container.Spec, 5)
		for i := range specs {
			specs[i] = container.Spec{
				Name: string(rune('a' + i)), CPUQuotaUS: 1_000_000, CPUPeriodUS: 100_000,
				Gamma: 0.5,
			}
		}
		jvms := runJVMs(t, h, specs, w, jvm.Config{Policy: policy, Xmx: 3 * w.MinHeap})
		var total time.Duration
		for _, j := range jvms {
			if j.Failed() {
				t.Fatalf("%s failed: %v", j.Name, j.FailReason())
			}
			total += j.Stats.ExecTime()
		}
		t.Logf("%v: avg exec %v, gc %v, gcthreads last %d",
			policy, total/5, jvms[0].Stats.GCTime, jvms[0].Stats.GCs[len(jvms[0].Stats.GCs)-1].Threads)
		return total / 5
	}
	vanilla := run(jvm.Vanilla8)
	adaptive := run(jvm.Adaptive)
	if adaptive >= vanilla {
		t.Errorf("adaptive (%v) should beat vanilla (%v) under contention", adaptive, vanilla)
	}
}

// TestEffectiveCPUTracksContention checks Algorithm 1's work-conserving
// growth: a lone busy container on an idle host should grow E_CPU to its
// upper bound; adding contenders should pull it back toward fair share.
func TestEffectiveCPUTracksContention(t *testing.T) {
	h := newHost(t, 20, 128*units.GiB)
	ctr := h.Runtime.Create(container.Spec{Name: "solo"})
	ctr.Exec("app")
	sb := workloads.NewSysbench(h, ctr, 20, 1e9)
	sb.Start()
	h.Run(2 * time.Second)
	if got := ctr.NS.EffectiveCPU(); got < 18 {
		t.Errorf("solo busy container: E_CPU=%d, want near 20", got)
	}

	// Start four contenders; E_CPU must decay toward ceil(20/5)=4.
	for i := 0; i < 4; i++ {
		c := h.Runtime.Create(container.Spec{Name: string(rune('w' + i))})
		c.Exec("app")
		workloads.NewSysbench(h, c, 20, 1e9).Start()
	}
	h.Run(8 * time.Second)
	if got := ctr.NS.EffectiveCPU(); got > 6 {
		t.Errorf("contended container: E_CPU=%d, want near 4", got)
	}
	t.Logf("E_CPU contended: %d (bounds %v)", ctr.NS.EffectiveCPU(), []int{4, 20})
}

// TestOpenMPStrategies reproduces the Fig. 10(b) shape: one container
// with a 4-core quota on a 20-core host; adaptive threads must beat
// static (20 threads into 4 cores).
func TestOpenMPStrategies(t *testing.T) {
	run := func(strategy omp.Strategy) time.Duration {
		h := newHost(t, 20, 128*units.GiB)
		ctr := h.Runtime.Create(container.Spec{
			Name: "npb", CPUQuotaUS: 400_000, CPUPeriodUS: 100_000,
		})
		ctr.Exec("npb")
		p := omp.New(h, ctr, workloads.NPB("cg"), strategy)
		p.Start()
		if !h.RunUntilDone(30 * time.Minute) {
			t.Fatalf("%v did not finish", strategy)
		}
		t.Logf("%v: %v (threads %v...)", strategy, p.ExecTime(), p.ThreadTrace[:3])
		return p.ExecTime()
	}
	static := run(omp.Static)
	adaptive := run(omp.Adaptive)
	if adaptive >= static {
		t.Errorf("adaptive (%v) should beat static (%v) in a quota-limited container", adaptive, static)
	}
}

// TestElasticHeapAvoidsSwapCollapse reproduces the Fig. 11 shape: an
// allocation-heavy benchmark in a 1 GiB-hard-limit container. The
// vanilla JVM (32 GiB ergonomic max heap) must swap and collapse; the
// elastic JVM must stay under the limit and finish far faster.
func TestElasticHeapAvoidsSwapCollapse(t *testing.T) {
	run := func(elastic bool) (time.Duration, units.Bytes) {
		h := newHost(t, 20, 128*units.GiB)
		ctr := h.Runtime.Create(container.Spec{
			Name: "c0", MemHard: 1 * units.GiB, Gamma: 0.5,
		})
		ctr.Exec("java")
		cfg := jvm.Config{Xms: 500 * units.MiB}
		if elastic {
			cfg.Policy = jvm.Adaptive
			cfg.ElasticHeap = true
		} else {
			cfg.Policy = jvm.Vanilla8
		}
		j := jvm.New(h, ctr, workloads.DaCapo("xalan"), cfg)
		j.Start()
		if !h.RunUntilDone(4 * time.Hour) {
			t.Fatalf("elastic=%v did not finish", elastic)
		}
		if j.Failed() {
			t.Fatalf("elastic=%v failed: %v", elastic, j.FailReason())
		}
		out, _ := ctr.Cgroup.Mem.SwapTraffic()
		t.Logf("elastic=%v exec=%v stall=%v committed=%v swapout=%v gcs=%d",
			elastic, j.Stats.ExecTime(), j.Stats.StallTime, j.Heap().Committed(), out, j.Stats.MinorGCs)
		return j.Stats.ExecTime(), out
	}
	vt, vswap := run(false)
	et, eswap := run(true)
	if eswap != 0 {
		t.Errorf("elastic JVM swapped %v; want none", eswap)
	}
	if vswap == 0 {
		t.Errorf("vanilla JVM did not swap; the overcommit scenario is broken")
	}
	if et*3 > vt {
		t.Errorf("elastic (%v) should be far faster than swapping vanilla (%v)", et, vt)
	}
}
