package integration

import (
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/jvm"
	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// kernelSample is one row of the observable-state history the
// determinism test compares between dense and fast-forwarded runs.
type kernelSample struct {
	at   sim.Time
	ecpu int
	emem units.Bytes
	load float64
	free units.Bytes
	swap units.Bytes
}

// runKernelScenario runs a fixed seeded scenario — an overcommitted JVM
// that swap-stalls (so its tasks go off-CPU mid-run, opening idle spans
// the kernel can fast-forward), followed by a two-second fully idle
// tail — and samples host-visible state every 10ms.
func runKernelScenario(t *testing.T, ff bool) ([]kernelSample, *jvm.JVM, *telemetry.Tracer) {
	t.Helper()
	h := host.New(host.Config{CPUs: 8, Memory: 16 * units.GiB, Seed: 11})
	tr := h.EnableTelemetry(0)
	ctr := h.Runtime.Create(container.Spec{Name: "a", MemHard: 96 * units.MiB, Gamma: 0.5})
	ctr.Exec("java")
	w := jvm.Workload{
		Name: "press", TotalWork: 4, Threads: 4,
		AllocPerCPUSec: 200 * units.MiB, LiveSet: 50 * units.MiB,
		MinHeap: 80 * units.MiB, SurviveFrac: 0.1, GCSerialFrac: 0.2,
	}
	j := jvm.New(h, ctr, w, jvm.Config{Policy: jvm.Vanilla8, Xmx: units.GiB, Xms: 256 * units.MiB})
	j.Start()

	var samples []kernelSample
	h.Clock.Every(10*time.Millisecond, func(now sim.Time) {
		samples = append(samples, kernelSample{
			at:   now,
			ecpu: ctr.NS.EffectiveCPU(),
			emem: ctr.NS.EffectiveMemory(),
			load: h.Sched.LoadAvg(),
			free: h.Mem.Free(),
			swap: h.Mem.Swap().Used(),
		})
	})
	var done bool
	if ff {
		done = h.RunUntilDone(30 * time.Minute)
	} else {
		// RunUntil steps tick by tick, evaluating its condition once
		// per tick; the JVM is the host's only program.
		done = h.RunUntil(j.Done, 30*time.Minute)
	}
	if !done {
		t.Fatalf("JVM did not finish (progress %.2f)", j.Progress())
	}
	// Idle tail: nothing runnable, nothing to poll.
	if ff {
		h.Run(2 * time.Second)
	} else {
		for end := h.Now() + 2*time.Second; h.Now() < end; {
			h.Step()
		}
	}
	return samples, j, tr
}

// TestFastForwardDeterminism is the kernel's end-to-end determinism
// proof on a scenario that exercises every subsystem: the same seeded
// run executed densely and with idle-span fast-forwarding must produce
// identical sampled histories of effective CPU, effective memory, load
// average, free memory, and swap occupancy — and identical final JVM
// statistics — while the fast-forwarded run demonstrably skips ticks.
func TestFastForwardDeterminism(t *testing.T) {
	dSamples, dJVM, dTr := runKernelScenario(t, false)
	fSamples, fJVM, fTr := runKernelScenario(t, true)

	if len(dSamples) != len(fSamples) {
		t.Fatalf("history lengths differ: dense %d, ff %d", len(dSamples), len(fSamples))
	}
	for i := range dSamples {
		if dSamples[i] != fSamples[i] {
			t.Fatalf("histories diverge at sample %d:\ndense %+v\nff    %+v",
				i, dSamples[i], fSamples[i])
		}
	}
	if d, f := dJVM.Stats.ExecTime(), fJVM.Stats.ExecTime(); d != f {
		t.Fatalf("exec time diverged: dense %v, ff %v", d, f)
	}
	if d, f := dJVM.Stats.StallTime, fJVM.Stats.StallTime; d != f {
		t.Fatalf("stall time diverged: dense %v, ff %v", d, f)
	}
	if d, f := dJVM.Stats.MinorGCs, fJVM.Stats.MinorGCs; d != f {
		t.Fatalf("minor GC count diverged: dense %d, ff %d", d, f)
	}
	if dJVM.Stats.StallTime == 0 {
		t.Fatal("scenario never swap-stalled; it no longer exercises idle spans mid-run")
	}

	if got := dTr.Count(telemetry.CtrSkippedTicks); got != 0 {
		t.Fatalf("dense run skipped %d ticks", got)
	}
	if fTr.Count(telemetry.CtrSkippedTicks) == 0 {
		t.Fatal("fast-forward run never skipped a tick")
	}
	// Both runs cover the same span of virtual time.
	dTicks := dTr.Count(telemetry.CtrSteps)
	fTicks := fTr.Count(telemetry.CtrSteps) + fTr.Count(telemetry.CtrSkippedTicks)
	if dTicks != fTicks {
		t.Fatalf("tick totals differ: dense %d, ff %d(+skipped)", dTicks, fTicks)
	}
	// The subsystem instrumentation must agree too: reclaim activity is
	// identical tick-for-tick.
	for _, c := range []telemetry.Counter{
		telemetry.CtrKswapdRuns, telemetry.CtrDirectReclaims, telemetry.CtrOOMKills,
	} {
		if d, f := dTr.Count(c), fTr.Count(c); d != f {
			t.Fatalf("%v diverged: dense %d, ff %d", c, d, f)
		}
	}
}
