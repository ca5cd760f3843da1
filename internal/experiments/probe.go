package experiments

import (
	"fmt"
	"time"

	"arv/internal/container"
	"arv/internal/telemetry"
	"arv/internal/texttable"
	"arv/internal/units"
	"arv/internal/workloads"
)

func init() {
	register("ext-probe", "Extension: snapshot serving under probe load — staleness and version lag", ExtProbe)
}

// Phase layout of the prober experiment. Durations are fixed — not
// scaled by Options.Scale — because the statistics under test (snapshot
// staleness relative to the ~24 ms update period, version lag between
// bursts) are absolute-time phenomena; Scale shrinks only the
// background CPU work.
const (
	probeSpan        = 8 * time.Second
	probeLoadStart   = time.Second     // background sysbench waves begin
	probeChurnKill   = 3 * time.Second // one background container dies
	probeChurnSpawn  = 4 * time.Second // a replacement arrives
	probeQuotaChange = 5 * time.Second // the probed container's quota halves
)

// ExtProbe runs three probers of very different cadence against one
// container's published view while background load, container churn,
// and a quota rewrite drive snapshot publication — the ARC-V /
// AgentCgroup consumption pattern (external adapters polling effective
// views at high rate) expressed in deterministic virtual time. Table 1
// reports each prober's probe and staleness statistics; table 2 the
// publisher's counters. Everything is sim-time-derived, so the output
// is byte-identical across runs and golden-locked.
func ExtProbe(opts Options) *Result {
	h := paperHost(time.Millisecond)
	tr := h.Trace

	specs := []container.Spec{
		{Name: "api", CPUQuotaUS: 800_000, CPUPeriodUS: 100_000,
			MemHard: 8 * units.GiB, MemSoft: 4 * units.GiB},
	}
	for i := 0; i < 4; i++ {
		specs = append(specs, container.Spec{Name: fmt.Sprintf("bg%d", i)})
	}
	ctrs := createContainers(h, specs)
	api := ctrs[0]

	probers := []*workloads.Prober{
		workloads.NewProber(h, api, time.Millisecond, 16, probeSpan),
		workloads.NewProber(h, api, 5*time.Millisecond, 64, probeSpan),
		workloads.NewProber(h, api, 25*time.Millisecond, 256, probeSpan),
	}
	for _, p := range probers {
		p.Start()
	}

	// Background load makes the views move: staggered CPU waves, one
	// container dying mid-run, one arriving, and a quota rewrite on the
	// probed container itself.
	work := units.CPUSeconds(24 * opts.scale())
	h.Clock.After(probeLoadStart, func(now time.Duration) {
		for i := 1; i <= 4; i++ {
			workloads.NewSysbench(h, ctrs[i], 4+i, work).Start()
		}
	})
	h.Clock.After(probeChurnKill, func(now time.Duration) {
		h.Runtime.Destroy(ctrs[4])
	})
	h.Clock.After(probeChurnSpawn, func(now time.Duration) {
		c := h.Runtime.Create(container.Spec{Name: "bg4"})
		c.Exec("app")
		workloads.NewSysbench(h, c, 6, work).Start()
	})
	h.Clock.After(probeQuotaChange, func(now time.Duration) {
		api.Cgroup.SetQuota(400_000, 100_000)
	})

	h.Run(probeSpan)

	t1 := texttable.New("probe bursts against the api container's snapshot view",
		"interval", "burst", "probes", "bursts", "versions", "max_vlag", "fresh", "stale", "max_age", "ecpu",
		"age_p50", "age_p95", "age_p99")
	for _, p := range probers {
		t1.AddRow(p.Interval.String(), p.Burst, p.Probes, p.Bursts,
			p.VersionsSeen, p.MaxVersionLag, p.FreshBursts, p.StaleBursts,
			p.MaxAge.Round(time.Millisecond).String(),
			fmt.Sprintf("%d..%d", p.MinECPU, p.MaxECPU),
			p.AgePercentile(50).Round(time.Millisecond).String(),
			p.AgePercentile(95).Round(time.Millisecond).String(),
			p.AgePercentile(99).Round(time.Millisecond).String())
	}

	final := h.Monitor.Snapshot()
	t2 := texttable.New("publisher side: snapshot publication counters over the run",
		"snapshots", "final_version", "reads_served", "lag_max")
	t2.AddRow(tr.Count(telemetry.CtrSnapshotsPublished),
		final.Version,
		tr.Count(telemetry.CtrSnapshotReads),
		time.Duration(tr.Count(telemetry.CtrSnapshotLagMax)).Round(time.Millisecond).String())

	return &Result{
		ID: "ext-probe", Title: "Snapshot publication under probe load (extension)",
		Tables: []*texttable.Table{t1, t2},
		Notes: []string{
			"Probers read the same immutable snapshots the fsd daemon serves; staleness (burst age vs the snapshot's cut time) is bounded by the ns_monitor update period, and max_vlag shows how many publications a slow poller can skip over.",
			"Background load starts at 1s; a background container dies at 3s and a replacement arrives at 4s (topology churn); the api quota halves at 5s — each a publication trigger beyond the periodic rounds.",
		},
	}
}
