package experiments

import (
	"fmt"
	"math"
	"time"

	"arv/internal/autoscaler"
	"arv/internal/container"
	"arv/internal/faults"
	"arv/internal/telemetry"
	"arv/internal/texttable"
	"arv/internal/units"
	"arv/internal/webserver"
	"arv/internal/workloads"
)

func init() {
	register("ext-autoscale", "Extension: view-driven vertical autoscaling — SLO vs footprint across resize policies", ExtAutoscale)
}

// Phase layout of the autoscale experiment. The durations are fixed —
// not scaled by Options.Scale — because the control-loop dynamics are
// absolute-time phenomena: the 100 ms resize cadence, the burst widths,
// and the webserver's latency distribution must not move with scale.
const (
	autoSpan       = 12 * time.Second      // serving window
	autoDrain      = 2 * time.Second       // queue drain + post-burst shrink
	autoSampleStep = 10 * time.Millisecond // quota-footprint sampling interval
)

// ExtAutoscale closes the control loop the rest of the repo only
// observes: a vertical autoscaler that reads each managed container's
// published view snapshot and rewrites its cgroup quota in response.
// One web service starts with a 4-CPU quota and serves an open-loop
// stream (demand ≈ 1.5 CPUs) while two in-container CPU bursts and
// three batch co-runners stress it; a decoy container's limits are
// churned with delayed cgroup events so the views are maintained under
// mild, realistic fault pressure. Four arms differ only in resize
// policy:
//
//   - static:  the no-op reference — the quota the operator set is the
//     quota the service keeps (resizes must read 0);
//   - target:  track usage plus headroom, grow multiplicatively out of
//     throttle — the SLO-vs-footprint sweet spot the table exists to
//     show (better p99 AND fewer CPU·s than static);
//   - shares:  drop the bandwidth limit entirely and steer with shares
//     only — best latency, unbounded footprint;
//   - banked:  CPU bursting with a quota bank — unused baseline accrues
//     and is spent on bursts, never exceeding baseline on average.
//
// Footprint is the time-integral of min(quota, NCPU) over the full
// span: what a capacity planner would bill the service for. The arms
// fan out across opts.Workers.
func ExtAutoscale(opts Options) *Result {
	type arm struct {
		name string
		pol  autoscaler.Policy
	}
	arms := []arm{
		{"static", autoscaler.Static{}},
		{"target", autoscaler.Target{}},
		{"shares", autoscaler.SharesOnly{}},
		{"banked", autoscaler.Banked{BankCapMS: 2000}},
	}

	rows := make([][]any, len(arms))
	opts.forEach(len(arms), func(i int) {
		h := paperHost(time.Millisecond)
		tr := h.Trace

		specs := []container.Spec{
			{Name: "svc", CPUQuotaUS: 400_000, Gamma: 0.6},
			{Name: "decoy", CPUQuotaUS: 200_000, Gamma: 0.5},
		}
		for k := 0; k < 3; k++ {
			specs = append(specs, container.Spec{Name: fmt.Sprintf("batch%d", k)})
		}
		ctrs := createContainers(h, specs)

		// Attach after setup so creation-time limit events are never
		// fault candidates; the injector then delays every cgroup event
		// and churns the decoy, keeping the views under fault pressure
		// without ever touching svc's limits directly.
		inj := faults.Attach(h, faults.Config{
			Seed:             23,
			EventDelay:       2 * time.Millisecond,
			EventDelayJitter: 0.5,
		})
		inj.StartChurn(faults.ChurnRule{
			Target:       "decoy",
			Interval:     300 * time.Millisecond,
			Jitter:       0.5,
			MinQuotaCPUs: 1,
			MaxQuotaCPUs: 3,
		})

		srv := webserver.New(h, ctrs[0], webserver.Config{
			Sizing:      webserver.SizeAdaptive,
			RequestRate: 150,  // demand: 1.5 CPUs
			ServiceCost: 0.01, // 10 ms of CPU per request
			QueueLimit:  256,
			Duration:    autoSpan,
		})
		srv.Start()

		// Two in-container bursts: compute jobs landing inside the
		// serving container, each wanting 4 CPUs on top of the serving
		// demand — more than the 4-CPU quota can give. Static throttles
		// through them; target grows out of them.
		for _, at := range []time.Duration{2 * time.Second, 6 * time.Second} {
			h.Clock.After(at, func(now time.Duration) {
				workloads.NewSysbench(h, ctrs[0], 4, 8).Start()
			})
		}
		for k := 0; k < 3; k++ {
			workloads.NewSysbench(h, ctrs[2+k], 4, units.CPUSeconds(4*autoSpan.Seconds())).Start()
		}

		autoscaler.Attach(h, autoscaler.Config{
			Interval: 100 * time.Millisecond,
			Policy:   arms[i].pol,
			Specs:    []autoscaler.Spec{{Name: "svc", MinCPUs: 2, MaxCPUs: 10}},
		})

		// Footprint: integrate the quota actually held, clamped to the
		// host (a removed limit bills as the whole machine).
		ncpu := float64(h.Sched.NCPU())
		var cpuS float64
		h.Clock.Every(autoSampleStep, func(now time.Duration) {
			if now > autoSpan+autoDrain {
				return
			}
			q := ncpu
			if us := ctrs[0].Cgroup.CPU.QuotaUS; us >= 0 {
				q = math.Min(float64(us)/float64(ctrs[0].Cgroup.CPU.PeriodUS), ncpu)
			}
			cpuS += q * autoSampleStep.Seconds()
		})

		h.Run(autoSpan + autoDrain)
		rows[i] = []any{arms[i].name,
			srv.Stats.Served, srv.Stats.Dropped,
			srv.Stats.PercentileLatency(99).Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", cpuS),
			tr.Count(telemetry.CtrAutoscaleResizes),
			tr.Count(telemetry.CtrAutoscaleClamped),
			tr.Count(telemetry.CtrAutoscaleBankSpentMS)}
	})

	t := texttable.New("open-loop adaptive server under burst load, one resize policy per arm",
		"policy", "served", "dropped", "p99", "cpu_s", "resizes", "clamped", "bank_ms")
	for _, row := range rows {
		t.AddRow(row...)
	}

	return &Result{
		ID: "ext-autoscale", Title: "Autoscaling: closing the loop from published views to cgroup limits",
		Tables: []*texttable.Table{t},
		Notes: []string{
			"cpu_s integrates min(quota, NCPU) over the whole span — the footprint a capacity planner bills; the shares arm's removed limit bills as the full host.",
			"target must beat static on BOTH p99 and cpu_s: growing out of throttle serves the bursts, shrinking to usage+headroom between them hands the capacity back.",
			"the 2-CPU floor is load-bearing: an adaptive application resizes its worker pool to the view each resize just shrank, so usage chases the quota downward and throttle pressure turns invisible to a usage-tracking policy — a floor above steady demand keeps the loop out of that trap.",
		},
	}
}
