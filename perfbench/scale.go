package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"arv/internal/host"
	"arv/internal/scalebench"
)

const (
	// scaleContainers is the headline point of the container-scale
	// trajectory (BENCH_scale.json).
	scaleContainers = 16384
	// bindingContainers, bindingCPUs, bindingEvery and bindingTasks shape
	// the binding host: 64 busy containers of 4 runnable tasks each on
	// 256 CPUs, so every busy container's fair share exceeds its churned
	// quota (1-4 CPUs) and the quota decides its rate. Each churn firing
	// on a busy container then changes the allocation, which is the
	// regime the scheduler's incremental tick repair serves.
	bindingContainers = 4096
	bindingCPUs       = 256
	bindingEvery      = 64
	bindingTasks      = 4
	// scaleChunk is the simulated span timed as one operation: exactly
	// ten of the host's 24 ms view-update rounds, so every chunk does
	// the same periodic work and their median is stable. Results are
	// reported per simulated second.
	scaleChunk = 240 * time.Millisecond
	// scaleSetups is how many times a run builds the host; the median
	// build time is reported and two builds are compared for
	// determinism.
	scaleSetups = 15
)

// buildScale builds and warms one scale host from seed.
func buildScale(seed uint64, binding bool) *scalebench.Bench {
	n := scaleContainers
	if binding {
		n = bindingContainers
	}
	cfg := scalebench.Defaults(n)
	cfg.Seed = seed
	if binding {
		cfg.CPUs = bindingCPUs
		cfg.RunnableEvery = bindingEvery
	}
	b := scalebench.Build(cfg)
	if binding {
		for _, g := range b.H.Sched.Groups() {
			if g.RunnableTasks() == 0 {
				continue
			}
			for i := 1; i < bindingTasks; i++ {
				b.H.Sched.SetRunnable(b.H.Sched.NewTask(g, "spin"), true)
			}
		}
	}
	b.H.Run(b.Cfg.Warmup)
	return b
}

// stateDigest hashes the scheduler's observable allocation (every
// group's rate) and the host's counters, so two hosts built and run
// from the same seed can be compared.
func stateDigest(h *host.Host) string {
	f := fnv.New64a()
	for _, g := range h.Sched.Groups() {
		fmt.Fprintf(f, "%s=%x;", g.Name, math.Float64bits(g.LastRate()))
	}
	return fmt.Sprintf("t=%v ctr=%v rates=%x", h.Now(), h.Trace.Counters(), f.Sum64())
}

// checkAllocation verifies the scheduler's last allocation is
// physical: no group runs more tasks than it has runnable, and the leaf
// groups together use at most the host's CPUs. (A group's quota may
// have been rewritten after the tick its rate is from, so the rate is
// not compared with the current quota.)
func checkAllocation(h *host.Host) error {
	const eps = 1e-9
	sum := 0.0
	for _, g := range h.Sched.Groups() {
		r := g.LastRate()
		if limit := float64(g.RunnableTasks()); len(g.Children()) == 0 && (r < -eps || r > limit+eps || math.IsNaN(r)) {
			return fmt.Errorf("t=%v: group %s rate %g outside [0, %g]", h.Now(), g.Name, r, limit)
		}
		if len(g.Children()) == 0 {
			sum += r
		}
	}
	if n := float64(h.Sched.NCPU()); sum > n*(1+eps) {
		return fmt.Errorf("t=%v: groups use %g CPUs on a %g-CPU host", h.Now(), sum, n)
	}
	return nil
}

// runScale measures wall time per simulated second on a scale host,
// timed in scaleChunk pieces.
func runScale(rc runConfig, binding bool) (*outcome, error) {
	o := &outcome{}
	var first string
	b, err := setupRepeated(scaleSetups, o,
		func() (*scalebench.Bench, error) { return buildScale(rc.seed, binding), nil },
		func(b *scalebench.Bench) {
			if first == "" {
				first = stateDigest(b.H)
			}
		})
	if err != nil {
		return nil, err
	}
	if got := stateDigest(b.H); got != first {
		o.fail("two hosts built from seed %d diverged after warmup:\n  %s\n  %s", rc.seed, first, got)
	}

	if rc.trace {
		o.lt = &layerTrace{}
	}
	err = measure(o, func() {
		repeatFor(rc.window, func() {
			t0 := b.H.Now()
			start := time.Now()
			b.H.Run(scaleChunk)
			o.ops = append(o.ops, time.Since(start)*time.Second/scaleChunk)
			o.attempted++
			if adv := time.Duration(b.H.Now() - t0); adv != scaleChunk {
				o.failed++
				o.fail("a %v chunk advanced the clock by %v", scaleChunk, adv)
			} else if err := checkAllocation(b.H); err != nil {
				o.failed++
				o.fail("%v", err)
			}
		})
	})
	return o, err
}
