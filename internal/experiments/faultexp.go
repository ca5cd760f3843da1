package experiments

import (
	"fmt"
	"time"

	"arv/internal/container"
	"arv/internal/faults"
	"arv/internal/jvm"
	"arv/internal/telemetry"
	"arv/internal/texttable"
	"arv/internal/units"
	"arv/internal/webserver"
	"arv/internal/workloads"
)

func init() {
	register("fault-staleness", "Fault injection: effective-CPU error and GC-thread overshoot vs ns_monitor lag", FaultStaleness)
	register("fault-churn", "Fault injection: server behaviour under limit churn with dropped events", FaultChurn)
}

// Phase layout of the staleness experiment. The durations are fixed —
// not scaled by Options.Scale — because the dynamics under test are
// absolute-time phenomena: the laggiest configuration must still
// complete its 1-per-round E_CPU ramp inside phase A, and phase B must
// be long enough for the slowest decay to finish.
const (
	stalePhaseA     = 6 * time.Second       // JVM alone: E_CPU ramps to its upper range
	stalePhaseB     = 6 * time.Second       // co-runners arrive: E_CPU must decay to its share
	staleSampleStep = 10 * time.Millisecond // effective-CPU sampling interval
)

// staleTrial is one fault-staleness run: a DaCapo JVM sharing the host
// with four sysbench containers that all arrive at the phase boundary.
type staleTrial struct {
	samples   []int // java E_CPU every staleSampleStep
	gcs       []jvm.GCRecord
	lower     int // java's guaranteed share (the conservative floor)
	staleMax  time.Duration
	fallbacks uint64
	lagged    uint64
}

// runStaleTrial executes the scenario with the given injected update
// lag, optionally with the graceful-degradation machinery armed
// (staleness budget 100 ms, under the lagged update interval, so the
// conservative fallback engages between late rounds).
func runStaleTrial(lag time.Duration, degrade bool) staleTrial {
	h := paperHost(time.Millisecond)
	tr := h.Trace
	inj := faults.Attach(h, faults.Config{Seed: 11, UpdateLag: lag})
	if degrade {
		h.Monitor.SetDegradation(100*time.Millisecond, 0)
	}
	_ = inj

	specs := []container.Spec{{Name: "java", Gamma: gammaDaCapo}}
	for i := 0; i < 4; i++ {
		specs = append(specs, container.Spec{Name: fmt.Sprintf("sb%d", i)})
	}
	ctrs := createContainers(h, specs)

	w := workloads.DaCapo("sunflow")
	w.TotalWork = 200 // keep the mutator busy through both phases
	j := startJVM(h, ctrs[0], w, jvm.Config{Policy: jvm.Adaptive, Xmx: 3 * w.MinHeap})

	// Phase boundary: four co-runner containers saturate the host, so
	// the slack that let java's view grow disappears at one instant.
	h.Clock.After(stalePhaseA, func(now time.Duration) {
		for i := 1; i < len(ctrs); i++ {
			workloads.NewSysbench(h, ctrs[i], 5, 40).Start()
		}
	})

	st := staleTrial{}
	h.Clock.Every(staleSampleStep, func(now time.Duration) {
		st.samples = append(st.samples, ctrs[0].NS.EffectiveCPU())
	})

	h.Run(stalePhaseA + stalePhaseB)

	st.gcs = append(st.gcs, j.Stats.GCs...)
	st.lower, _ = ctrs[0].NS.CPUBounds()
	st.staleMax = time.Duration(tr.Count(telemetry.CtrStalenessMax))
	st.fallbacks = tr.Count(telemetry.CtrStaleFallbacks)
	st.lagged = tr.Count(telemetry.CtrUpdatesLagged)
	return st
}

// cpuOvershoot integrates max(0, E_CPU − E_CPU_ref) over phase B: the
// CPU-seconds by which the stale view promised more capacity than the
// fresh view would have. The reference trajectory comes from the lag-0
// trial, so the lag-0 row is zero by construction.
func cpuOvershoot(st, ref staleTrial) float64 {
	first := int(stalePhaseA / staleSampleStep)
	sum := 0.0
	for i := first; i < len(st.samples) && i < len(ref.samples); i++ {
		if d := st.samples[i] - ref.samples[i]; d > 0 {
			sum += float64(d) * staleSampleStep.Seconds()
		}
	}
	return sum
}

// gcOvershoot sums, over the phase-B collections, the GC threads run
// above the container's guaranteed share — the threads a fresh view
// would not have granted once the co-runners arrived.
func gcOvershoot(st staleTrial) int {
	over := 0
	for _, rec := range st.gcs {
		if time.Duration(rec.At) < stalePhaseA {
			continue
		}
		if d := rec.Threads - st.lower; d > 0 {
			over += d
		}
	}
	return over
}

// FaultStaleness measures what a slow ns_monitor costs. One DaCapo
// container ramps its effective CPU while alone on the host (phase A);
// at the phase boundary four sysbench containers saturate the host, and
// the container's view must decay to its guaranteed share (phase B).
// Injected update lag stretches the interval between Algorithm 1
// rounds, so the view stays stale-high after the capacity drop: the
// effective-CPU overshoot error (vs the lag-0 reference trajectory)
// and the GC-thread overshoot grow monotonically with the lag. The last
// row repeats the worst lag with graceful degradation armed — a 100 ms
// staleness budget under the lagged update interval — showing the
// conservative fallback trading ramp-phase upside for a near-zero
// overshoot. Trials fan out across opts.Workers; the lag-0 reference
// runs first, sequentially, so results are identical at any width.
func FaultStaleness(opts Options) *Result {
	type cfg struct {
		name    string
		lag     time.Duration
		degrade bool
	}
	cfgs := []cfg{
		{"lag-0 (reference)", 0, false},
		{"lag-50ms", 50 * time.Millisecond, false},
		{"lag-100ms", 100 * time.Millisecond, false},
		{"lag-200ms", 200 * time.Millisecond, false},
		{"lag-200ms+degraded", 200 * time.Millisecond, true},
	}
	trials := make([]staleTrial, len(cfgs))
	trials[0] = runStaleTrial(cfgs[0].lag, cfgs[0].degrade)
	opts.forEach(len(cfgs)-1, func(i int) {
		trials[i+1] = runStaleTrial(cfgs[i+1].lag, cfgs[i+1].degrade)
	})

	t := texttable.New("effective-CPU and GC-thread overshoot vs injected ns_monitor lag",
		"config", "cpu_err", "gc_over", "stale_max", "fallbacks", "lagged")
	for i, c := range cfgs {
		t.AddRow(c.name,
			fmt.Sprintf("%.2f", cpuOvershoot(trials[i], trials[0])),
			gcOvershoot(trials[i]),
			trials[i].staleMax.Round(time.Millisecond).String(),
			trials[i].fallbacks, trials[i].lagged)
	}

	return &Result{
		ID: "fault-staleness", Title: "Staleness: view error under ns_monitor update lag",
		Tables: []*texttable.Table{t},
		Notes: []string{
			"cpu_err is CPU-seconds of effective CPU promised above the lag-0 reference during phase B; gc_over is GC threads run above the guaranteed share across phase-B collections.",
			"The degraded row keeps the 200 ms lag but arms a 100 ms staleness budget: between late rounds the view falls back to the guaranteed share, so the capacity drop is never over-promised.",
		},
	}
}

// FaultChurn measures an adaptive server's behaviour when its cpu quota
// is churned by an external controller and the limit-change events are
// unreliable. A web container (10-CPU quota, adaptive worker sizing)
// serves an open-loop stream while four batch containers keep the host
// contended; the fault injector rewrites the web quota every 250 ms and
// drops 60% of the resulting cgroup events before ns_monitor sees them.
// Without recovery the server sizes its pool from a stale view;
// with graceful degradation (retry-with-backoff resync, 100 ms minimum
// interval) the bounds are repaired within a resync round. The three
// configurations fan out across opts.Workers.
func FaultChurn(opts Options) *Result {
	const duration = 10 * time.Second // fixed: churn dynamics are absolute-time

	type cfg struct {
		name         string
		churn, drops bool
		resync       time.Duration
	}
	cfgs := []cfg{
		{"no-faults", false, false, 0},
		{"churn+drops", true, true, 0},
		{"churn+drops+resync", true, true, 100 * time.Millisecond},
	}

	rows := make([][]any, len(cfgs))
	opts.forEach(len(cfgs), func(i int) {
		c := cfgs[i]
		h := paperHost(time.Millisecond)
		tr := h.Trace

		specs := []container.Spec{{
			Name:       "web",
			CPUQuotaUS: 1_000_000, CPUPeriodUS: 100_000, // 10-core limit
			Gamma: 0.6,
		}}
		for k := 0; k < 4; k++ {
			specs = append(specs, container.Spec{Name: fmt.Sprintf("batch%d", k)})
		}
		ctrs := createContainers(h, specs)

		// Attach after setup so creation-time limit events are never
		// fault candidates; only the churned changes are.
		injCfg := faults.Config{Seed: 42}
		if c.drops {
			injCfg.EventDropProb = 0.6
		}
		inj := faults.Attach(h, injCfg)
		if c.resync > 0 {
			h.Monitor.SetDegradation(0, c.resync)
		}
		if c.churn {
			inj.StartChurn(faults.ChurnRule{
				Target:       "web",
				Interval:     250 * time.Millisecond,
				MinQuotaCPUs: 2,
				MaxQuotaCPUs: 10,
			})
		}

		srv := webserver.New(h, ctrs[0], webserver.Config{
			Sizing:      webserver.SizeAdaptive,
			RequestRate: 500,  // demand: 5 CPUs
			ServiceCost: 0.01, // 10 ms of CPU per request
			QueueLimit:  256,
			Duration:    duration,
		})
		srv.Start()
		for k := 1; k < len(ctrs); k++ {
			workloads.NewSysbench(h, ctrs[k], 4, units.CPUSeconds(4*duration.Seconds())).Start()
		}

		h.RunUntil(srv.Done, 4*time.Hour)
		rows[i] = []any{c.name,
			srv.Stats.Served, srv.Stats.Dropped,
			srv.Stats.MeanLatency().Round(time.Millisecond).String(),
			srv.Stats.PercentileLatency(99).Round(time.Millisecond).String(),
			tr.Count(telemetry.CtrLimitChurns),
			tr.Count(telemetry.CtrEventsDropped),
			tr.Count(telemetry.CtrRecomputeRetries)}
	})

	t := texttable.New("open-loop adaptive server under quota churn with unreliable cgroup events",
		"config", "served", "dropped", "mean_lat", "p99", "churns", "ev_dropped", "resyncs")
	for _, row := range rows {
		t.AddRow(row...)
	}

	return &Result{
		ID: "fault-churn", Title: "Limit churn: adaptive serving with and without graceful degradation",
		Tables: []*texttable.Table{t},
		Notes: []string{
			"Dropped events leave the adaptive server sizing its pool from stale bounds whenever the churned quota moved without ns_monitor hearing of it; the resync configuration repairs the bounds within at most one backoff interval.",
		},
	}
}
