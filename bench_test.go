// Benchmarks regenerating every table and figure of the paper (run with
// `go test -bench=. -benchmem`), plus the §5.4 overhead measurements and
// the ablation studies listed in DESIGN.md.
//
// The BenchmarkFigN benches run the corresponding experiment driver at a
// reduced workload scale per iteration and report headline metrics via
// b.ReportMetric; `cmd/arvbench -run figN` prints the full tables at
// paper scale.
package arv_test

import (
	"fmt"
	"testing"
	"time"

	"arv"
	"arv/internal/autoscaler"
	"arv/internal/cluster"
	"arv/internal/container"
	"arv/internal/experiments"
	"arv/internal/host"
	"arv/internal/jvm"
	"arv/internal/scalebench"
	"arv/internal/sim"
	"arv/internal/sysfs"
	"arv/internal/sysns"
	"arv/internal/units"
	"arv/internal/workloads"
)

// benchScale keeps per-iteration experiment runs affordable.
const benchScale = 0.15

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	// Workers 1: these are the single-core per-experiment cost
	// references (EXPERIMENTS.md §5.4, ROADMAP calibration); the default
	// trial fan-out would make them measure overlap instead.
	opts := experiments.Options{Scale: benchScale, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.Run(opts)
		if len(res.Tables) == 0 && len(res.Notes) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFig1(b *testing.B)  { runExperiment(b, "fig1") }
func BenchmarkFig2a(b *testing.B) { runExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B) { runExperiment(b, "fig2b") }
func BenchmarkFig6(b *testing.B)  { runExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }

// --- §5.4 overhead: the cost of maintaining and querying the views ---

// overheadHost builds a host with ten busy containers, the densest
// configuration the paper measures. Each runs a two-thread team whose
// callback accrues its work, as the programs' thread pools do, so every
// tick walks all ten groups instead of deferring their accounting.
func overheadHost() (*host.Host, *container.Container) {
	h := host.New(host.Config{CPUs: 20, Memory: 128 * units.GiB, Seed: 1})
	var first *container.Container
	work := make([]units.CPUSeconds, 10)
	for i := 0; i < 10; i++ {
		c := h.Runtime.Create(container.Spec{Name: fmt.Sprintf("c%d", i)})
		c.Exec("app")
		if first == nil {
			first = c
		}
		w := &work[i]
		team := h.Sched.NewTeam(c.Cgroup.CPU, 0, func(now sim.Time, n int, useful, raw units.CPUSeconds) {
			for k := 0; k < n; k++ {
				*w += useful
			}
		})
		for k := 0; k < 2; k++ {
			h.Sched.SetRunnable(h.Sched.NewTeamTask(team, "t"), true)
		}
	}
	h.Run(100 * time.Millisecond)
	return h, first
}

// BenchmarkSysnsUpdate measures one full ns_monitor round (Algorithm 1 +
// Algorithm 2 for all ten containers); the paper reports ~1us per
// namespace on its testbed.
func BenchmarkSysnsUpdate(b *testing.B) {
	h, _ := overheadHost()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Monitor.UpdateAll(h.Now())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/10, "ns/namespace")
}

// BenchmarkSysconfCPU measures a containerized _SC_NPROCESSORS_ONLN
// query through the virtual sysfs (paper: ~5us including the syscall
// path, which the simulation does not pay).
func BenchmarkSysconfCPU(b *testing.B) {
	_, c := overheadHost()
	v := c.View()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Sysconf(arv.ScNProcessorsOnln); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSysconfMemory measures the effective-memory query
// (_SC_PHYS_PAGES * _SC_PAGESIZE); the paper reports ~100us because it
// walks several sysinfo files.
func BenchmarkSysconfMemory(b *testing.B) {
	_, c := overheadHost()
	v := c.View()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pages, err := v.Sysconf(arv.ScPhysPages)
		if err != nil {
			b.Fatal(err)
		}
		psize, _ := v.Sysconf(arv.ScPageSize)
		_ = pages * psize
	}
}

// BenchmarkVirtualSysfsRead measures reading the container's
// /sys/devices/system/cpu/online pseudo-file.
func BenchmarkVirtualSysfsRead(b *testing.B) {
	_, c := overheadHost()
	v := c.View()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.ReadFile("/sys/devices/system/cpu/online"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerTick measures the fluid CFS allocation round with
// ten contending groups — the per-tick cost of the whole substrate. The
// groups' team callbacks keep them on the tick's eager walk, so the
// per-group accounting and one callback per group run every tick.
func BenchmarkSchedulerTick(b *testing.B) {
	h, _ := overheadHost()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Sched.Tick(h.Now(), time.Millisecond)
	}
}

// --- kernel loop: the cost of an idle host ---

// daemon is a mostly-sleeping background program (cron, a health
// checker): it wakes on a fixed period and does nothing measurable.
type daemon struct {
	period time.Duration
	next   sim.Time
}

func (d *daemon) Poll(now sim.Time) {
	if now >= d.next {
		d.next = now + sim.Time(d.period)
	}
}
func (d *daemon) Done() bool { return false }

// kernelScenario is the idle-heavy multitenant configuration: ten
// containers with attached namespaces, each hosting a daemon that wakes
// every 250ms, and no runnable tasks in between.
func kernelScenario() *host.Host {
	h := host.New(host.Config{CPUs: 20, Memory: 128 * units.GiB, Seed: 1})
	for i := 0; i < 10; i++ {
		c := h.Runtime.Create(container.Spec{Name: fmt.Sprintf("c%d", i)})
		c.Exec("daemon")
		h.AddProgram(&daemon{period: 250 * time.Millisecond})
	}
	return h
}

// BenchmarkKernelDense measures wall-clock cost per simulated second on
// the idle-heavy scenario, stepped tick by tick.
func BenchmarkKernelDense(b *testing.B) {
	const simSpan = 10 * time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := kernelScenario()
		b.StartTimer()
		for h.Now() < simSpan {
			h.Step()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/simSpan.Seconds(), "ns/sim-s")
}

// --- scale: container counts well past the paper's testbed ---
//
// The `scale` family (see internal/scalebench, DESIGN.md §14, and
// SCALING.md) runs synthetic hosts with 64..16384 flat containers under
// per-container limit churn and reports wall-clock cost per simulated
// second. The SteadyTick/SteadyUpdate variants isolate the two per-round
// hot paths — cfs.Scheduler.Tick and sysns.Monitor.UpdateAll — and
// SteadyChurn runs the whole churning kernel loop; all three must
// report 0 allocs/op (gated in CI by internal/tools/benchgate via
// `make bench-gate`; `make bench-scale` regenerates the committed
// BENCH_scale.json trajectory).

func benchScaleChurn(b *testing.B, n int) {
	cfg := scalebench.Defaults(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sb := scalebench.Build(cfg)
		sb.H.Run(cfg.Warmup)
		b.StartTimer()
		sb.H.Run(cfg.Span)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cfg.Span.Seconds(), "ns/sim-s")
}

func BenchmarkScale64(b *testing.B)    { benchScaleChurn(b, 64) }
func BenchmarkScale256(b *testing.B)   { benchScaleChurn(b, 256) }
func BenchmarkScale1024(b *testing.B)  { benchScaleChurn(b, 1024) }
func BenchmarkScale4096(b *testing.B)  { benchScaleChurn(b, 4096) }
func BenchmarkScale16384(b *testing.B) { benchScaleChurn(b, 16384) }

// steadyBench builds an n-container host without churn, one busy
// container in every (0: the scalebench default of 4), and warms it up,
// leaving the steady-state substrate ready for single-path iteration.
func steadyBench(n, every int) *scalebench.Bench {
	cfg := scalebench.Defaults(n)
	cfg.Churn = false
	cfg.RunnableEvery = every
	sb := scalebench.Build(cfg)
	sb.H.Run(cfg.Warmup)
	return sb
}

// BenchmarkScaleSteadyTick is one CFS allocation round at scale: the
// densest per-tick cost on a churn-free host. Must be 0 allocs/op.
func BenchmarkScaleSteadyTick(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sb := steadyBench(n, 0)
			now := sb.H.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sb.H.Sched.Tick(now, time.Millisecond)
			}
		})
	}
}

// BenchmarkScaleSteadyUpdate is one full ns_monitor round (Algorithm 1 +
// Algorithm 2 for every container) at scale: one busy container in 4,
// and in the sparse rows one in 64 (perfbench binding's shape, where
// the round's settle pass visits 1 group in 64). Must be 0 allocs/op.
func BenchmarkScaleSteadyUpdate(b *testing.B) {
	type shape struct{ n, every int }
	shapes := []shape{{64, 0}, {256, 0}, {1024, 0}, {4096, 0}, {16384, 0}, {4096, 64}, {16384, 64}}
	for _, sh := range shapes {
		name := fmt.Sprintf("n=%d", sh.n)
		if sh.every != 0 {
			name = fmt.Sprintf("sparse/n=%d", sh.n)
		}
		b.Run(name, func(b *testing.B) {
			sb := steadyBench(sh.n, sh.every)
			now := sb.H.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sb.H.Monitor.UpdateAll(now)
			}
		})
	}
}

// BenchmarkScaleSteadyChurn is 240 ticks of the kernel loop on a host
// with limit churn armed on every container and no view readers: churn
// timer firings re-arming in place, the cgroup events they raise, the
// view rounds with their bounds flushes, and the scheduler ticks. Must
// be 0 allocs/op.
func BenchmarkScaleSteadyChurn(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := scalebench.Defaults(n)
			sb := scalebench.Build(cfg)
			sb.H.Run(cfg.Warmup)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sb.H.Run(240 * time.Millisecond)
			}
		})
	}
}

// --- cluster: lockstep stepping and no-move rebalance (DESIGN.md §12) ---

// clusterSteady builds the steady-state cluster: four 16-CPU nodes with
// 64 busy quota'd containers each, eight scheduler placements for the
// rebalance rounds to re-score, adaptive lens, and a hysteresis no real
// score spread can clear — so rounds scan and score but never move.
// Monitor periods are stretched to 96 ms so the amortized per-period
// publication costs truncate below one alloc per step.
func clusterSteady() *cluster.Cluster {
	members := make([]cluster.NodeConfig, 4)
	for i := range members {
		members[i] = cluster.NodeConfig{Host: host.Config{
			CPUs: 16, Memory: 64 * units.GiB,
			Seed: uint64(i + 1),
		}}
	}
	c := cluster.New(cluster.Config{
		Lens:           cluster.LensAdaptive,
		Scorer:         cluster.Composite{{S: cluster.BinPack{}, W: -1}, {S: cluster.Health{}, W: 1}},
		RebalanceEvery: 48 * time.Millisecond,
		Hysteresis:     1e9,
	}, members...)
	for _, n := range c.Nodes() {
		n.Host.Monitor.FixedPeriod = 96 * time.Millisecond
		for k := 0; k < 64; k++ {
			ctr := n.Host.Runtime.Create(container.Spec{
				Name:       fmt.Sprintf("c%d", k),
				CPUQuotaUS: 200_000, CPUPeriodUS: 100_000,
			})
			ctr.Exec("app")
			t := n.Host.Sched.NewTask(ctr.Cgroup.CPU, "t")
			n.Host.Sched.SetRunnable(t, true)
		}
	}
	for i := 0; i < 8; i++ {
		c.Deploy(container.Spec{
			Name:       fmt.Sprintf("svc%d", i),
			CPUQuotaUS: 200_000, CPUPeriodUS: 100_000,
		}, cluster.DeployOpts{})
	}
	// Warm past the first post-deploy publication round (the monitors
	// publish in a burst every stretched period) so the measured window
	// opens right after a burst, a full period away from the next one —
	// the benchgate's short window must amortize to zero, not straddle
	// a burst.
	c.Run(220 * time.Millisecond)
	return c
}

// BenchmarkClusterSteady is one lockstep cluster tick in steady state —
// four dense host steps plus the cluster clock, with periodic no-move
// rebalance rounds reading every node's published snapshot. Must be
// 0 allocs/op (gated in CI via `make bench-gate`).
func BenchmarkClusterSteady(b *testing.B) {
	c := clusterSteady()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// --- autoscaler: the control loop's steady-state hot path (DESIGN.md §13) ---

// autoscaleSteadyHost builds the converged control loop: eight quota'd
// containers whose demand sits inside the target policy's deadband, so
// every 50 ms round reads the published snapshot, decides, and writes
// nothing. The monitor period is stretched to 96 ms so the amortized
// per-period publication cost truncates below one alloc per step, and
// the warm-up runs the loop past its one adoption-time growth resize.
func autoscaleSteadyHost() *host.Host {
	h := host.New(host.Config{CPUs: 20, Memory: 128 * units.GiB, Seed: 1})
	h.Monitor.FixedPeriod = 96 * time.Millisecond
	specs := make([]autoscaler.Spec, 0, 8)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("c%d", i)
		ctr := h.Runtime.Create(container.Spec{
			Name:       name,
			CPUQuotaUS: 200_000, CPUPeriodUS: 100_000,
		})
		ctr.Exec("app")
		for k := 0; k < 2; k++ {
			t := h.Sched.NewTask(ctr.Cgroup.CPU, "t")
			h.Sched.SetRunnable(t, true)
		}
		specs = append(specs, autoscaler.Spec{Name: name, MinCPUs: 1, MaxCPUs: 4})
	}
	autoscaler.Attach(h, autoscaler.Config{
		Interval: 50 * time.Millisecond,
		Policy:   autoscaler.Target{},
		Specs:    specs,
	})
	// Warm past the adoption-time resizes, stopping 5 steps short of a
	// 50 ms round boundary: even the benchgate's short 20-step window
	// then contains a full control round, so the gate has teeth.
	h.Run(245 * time.Millisecond)
	return h
}

// BenchmarkAutoscaleSteady is one dense host step with the autoscaler
// attached and converged — control rounds fire every 50 steps, read the
// lock-free snapshot, and hold inside the deadband. Must be 0 allocs/op
// (gated in CI via `make bench-gate`).
func BenchmarkAutoscaleSteady(b *testing.B) {
	h := autoscaleSteadyHost()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Step()
	}
}

// --- snapshot publication and lock-free serving (DESIGN.md §11) ---

// BenchmarkSnapshotPublish is one ViewSnapshot cut-and-swap at scale.
// Budget: 3 allocs/op steady-state — the snapshot header plus the two
// view slices; the name indexes are shared across publications while
// the topology is unchanged (gated in CI via `make bench-gate`).
func BenchmarkSnapshotPublish(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sb := steadyBench(n, 0)
			now := sb.H.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sb.H.Monitor.Publish(now)
			}
		})
	}
}

// BenchmarkSnapshotRead is the lock-free read path a server request or
// in-simulation prober performs: load the published snapshot, resolve a
// container by name, and answer sysconf probes from the frozen view.
// Must be 0 allocs/op (gated in CI).
func BenchmarkSnapshotRead(b *testing.B) {
	sb := steadyBench(256, 0)
	sb.H.Monitor.Publish(sb.H.Now())
	var acc int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := sb.H.Monitor.Snapshot()
		cv := snap.Container("c0100")
		if cv == nil {
			b.Fatal("container missing from snapshot")
		}
		v := sysfs.SnapView{C: cv, Host: &snap.Host}
		ncpu, err := v.Sysconf(sysfs.ScNProcessorsOnln)
		if err != nil {
			b.Fatal(err)
		}
		acc += ncpu + int64(v.OnlineCPUs()) + int64(v.TotalMemory())
	}
	_ = acc
}

// --- ablations (design choices called out in DESIGN.md §6) ---

// ablationRun executes the Fig. 6 xalan scenario (five equal-share
// containers, adaptive JVMs) under the given namespace options and
// returns mean exec and GC time.
func ablationRun(b *testing.B, opts sysns.Options) (exec, gc time.Duration) {
	b.Helper()
	h := host.New(host.Config{CPUs: 20, Memory: 128 * units.GiB, NSOptions: opts, Seed: 1})
	w := workloads.DaCapo("xalan")
	w.TotalWork = units.CPUSeconds(float64(w.TotalWork) * benchScale)
	ctrs := make([]*container.Container, 5)
	for i := range ctrs {
		ctrs[i] = h.Runtime.Create(container.Spec{Name: fmt.Sprintf("c%d", i), Gamma: 0.5})
		ctrs[i].Exec("java")
	}
	jvms := make([]*jvm.JVM, 5)
	for i, ctr := range ctrs {
		jvms[i] = jvm.New(h, ctr, w, jvm.Config{Policy: jvm.Adaptive, Xmx: 3 * w.MinHeap})
		jvms[i].Start()
	}
	if !h.RunUntilDone(time.Hour) {
		b.Fatal("ablation run did not finish")
	}
	for _, j := range jvms {
		exec += j.Stats.ExecTime()
		gc += j.Stats.GCTime
	}
	return exec / 5, gc / 5
}

func reportAblation(b *testing.B, opts sysns.Options) {
	var exec, gc time.Duration
	for i := 0; i < b.N; i++ {
		exec, gc = ablationRun(b, opts)
	}
	b.ReportMetric(exec.Seconds(), "exec-s")
	b.ReportMetric(gc.Seconds(), "gc-s")
}

// BenchmarkAblationUtilThreshold sweeps Algorithm 1's UTIL_THRSHD
// around the published 95%.
func BenchmarkAblationUtilThreshold(b *testing.B) {
	for _, th := range []float64{0.50, 0.80, 0.95, 0.99} {
		b.Run(fmt.Sprintf("thr=%.2f", th), func(b *testing.B) {
			reportAblation(b, sysns.Options{UtilThreshold: th})
		})
	}
}

// BenchmarkAblationStepSize compares the published +/-1-CPU-per-update
// rate limit against coarser jumps.
func BenchmarkAblationStepSize(b *testing.B) {
	for _, step := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("step=%d", step), func(b *testing.B) {
			reportAblation(b, sysns.Options{CPUStep: step})
		})
	}
}

// BenchmarkAblationUpdatePeriod compares the scheduling-period-coupled
// update interval against fixed timers.
func BenchmarkAblationUpdatePeriod(b *testing.B) {
	run := func(b *testing.B, fixed time.Duration) {
		var exec time.Duration
		for i := 0; i < b.N; i++ {
			h := host.New(host.Config{CPUs: 20, Memory: 128 * units.GiB, Seed: 1})
			h.Monitor.FixedPeriod = fixed
			w := workloads.DaCapo("xalan")
			w.TotalWork = units.CPUSeconds(float64(w.TotalWork) * benchScale)
			ctrs := make([]*container.Container, 5)
			for k := range ctrs {
				ctrs[k] = h.Runtime.Create(container.Spec{Name: fmt.Sprintf("c%d", k), Gamma: 0.5})
				ctrs[k].Exec("java")
			}
			jvms := make([]*jvm.JVM, 5)
			for k, ctr := range ctrs {
				jvms[k] = jvm.New(h, ctr, w, jvm.Config{Policy: jvm.Adaptive, Xmx: 3 * w.MinHeap})
				jvms[k].Start()
			}
			if !h.RunUntilDone(time.Hour) {
				b.Fatal("run did not finish")
			}
			exec = 0
			for _, j := range jvms {
				exec += j.Stats.ExecTime()
			}
			exec /= 5
		}
		b.ReportMetric(exec.Seconds(), "exec-s")
	}
	b.Run("sched-period", func(b *testing.B) { run(b, 0) })
	for _, p := range []time.Duration{100 * time.Millisecond, time.Second} {
		b.Run(fmt.Sprintf("fixed=%v", p), func(b *testing.B) { run(b, p) })
	}
}

// BenchmarkAblationStaticLowerBound isolates the benefit of the
// work-conserving dynamic adjustment over JVM10-style static shares by
// pinning E_CPU at its lower bound.
func BenchmarkAblationStaticLowerBound(b *testing.B) {
	b.Run("dynamic", func(b *testing.B) { reportAblation(b, sysns.Options{}) })
	b.Run("static", func(b *testing.B) { reportAblation(b, sysns.Options{DisableGrowth: true}) })
}

// BenchmarkAblationMemStep sweeps Algorithm 2's expansion increment
// (10% of remaining headroom in the paper) on the elastic-heap
// micro-benchmark.
func BenchmarkAblationMemStep(b *testing.B) {
	for _, frac := range []float64{0.05, 0.10, 0.25, 0.50} {
		b.Run(fmt.Sprintf("step=%.2f", frac), func(b *testing.B) {
			var exec time.Duration
			for i := 0; i < b.N; i++ {
				h := host.New(host.Config{
					CPUs: 20, Memory: 128 * units.GiB,
					Tick:      4 * time.Millisecond,
					NSOptions: sysns.Options{MemStepFrac: frac},
					Seed:      1,
				})
				w := workloads.MicroBench()
				w.TotalWork = units.CPUSeconds(float64(w.TotalWork) * 0.05)
				w.LiveSet = units.Bytes(float64(w.LiveSet) * 0.05)
				// Keep the limit geometry relative to the scaled working
				// set so effective-memory expansion actually binds.
				ctr := h.Runtime.Create(container.Spec{
					Name:    "c0",
					MemHard: w.LiveSet + w.LiveSet/2,
					MemSoft: w.LiveSet - w.LiveSet/4,
					Gamma:   0.5,
				})
				ctr.Exec("java")
				j := jvm.New(h, ctr, w, jvm.Config{Policy: jvm.Adaptive, ElasticHeap: true})
				j.Start()
				if !h.RunUntilDone(2 * time.Hour) {
					b.Fatal("microbench did not finish")
				}
				exec = j.Stats.ExecTime()
			}
			b.ReportMetric(exec.Seconds(), "exec-s")
		})
	}
}
