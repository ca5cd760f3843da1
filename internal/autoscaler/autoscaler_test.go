package autoscaler

import (
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/telemetry"
	"arv/internal/units"
	"arv/internal/workloads"
)

// newLoadedHost builds a host with one quota'd container running an
// effectively endless CPU-bound workload of the given parallelism.
func newLoadedHost(t *testing.T, cpus int, quotaCPUs float64, threads int) (*host.Host, *container.Container) {
	t.Helper()
	h := host.New(host.Config{CPUs: cpus, Memory: 16 * units.GiB, Seed: 1})
	h.EnableTelemetry(0)
	ctr := h.Runtime.Create(container.Spec{Name: "svc", CPUQuotaUS: int64(quotaCPUs * 100_000), Gamma: 0.6})
	ctr.Exec("sysbench")
	sb := workloads.NewSysbench(h, ctr, threads, 1e9)
	sb.Start()
	return h, ctr
}

func TestTargetPolicyGrowsOutOfThrottle(t *testing.T) {
	h, ctr := newLoadedHost(t, 8, 2, 6)
	a := Attach(h, Config{
		Interval: 100 * time.Millisecond,
		Policy:   Target{},
		Specs:    []Spec{{Name: "svc", MinCPUs: 1, MaxCPUs: 7}},
	})
	h.Run(3 * time.Second)
	if a.Rounds() == 0 {
		t.Fatal("no control rounds ran")
	}
	got := float64(ctr.Cgroup.CPU.QuotaUS) / 100_000
	if got <= 2 {
		t.Fatalf("quota did not grow out of throttle: %v CPUs", got)
	}
	if got > 7+1e-9 {
		t.Fatalf("quota exceeded MaxCPUs clamp: %v CPUs", got)
	}
	if h.Trace.Count(telemetry.CtrAutoscaleResizes) == 0 {
		t.Fatal("no resizes counted")
	}
	if len(h.Trace.EventsOf(telemetry.KindResize)) == 0 {
		t.Fatal("no KindResize events emitted")
	}
}

func TestTargetPolicyShrinksOverProvisioned(t *testing.T) {
	// 1 thread under an 6-CPU quota: usage ~1, so the tracker should
	// shrink the quota toward usage(1+headroom) ≈ 1.2.
	h, ctr := newLoadedHost(t, 8, 6, 1)
	Attach(h, Config{
		Interval: 100 * time.Millisecond,
		Policy:   Target{},
		Specs:    []Spec{{Name: "svc", MinCPUs: 1, MaxCPUs: 7}},
	})
	h.Run(3 * time.Second)
	got := float64(ctr.Cgroup.CPU.QuotaUS) / 100_000
	if got >= 3 {
		t.Fatalf("quota did not shrink toward usage: %v CPUs", got)
	}
	if got < 1 {
		t.Fatalf("quota fell below MinCPUs clamp: %v CPUs", got)
	}
}

func TestSharesOnlyRemovesQuota(t *testing.T) {
	h, ctr := newLoadedHost(t, 8, 2, 6)
	Attach(h, Config{
		Interval: 100 * time.Millisecond,
		Policy:   SharesOnly{},
		Specs:    []Spec{{Name: "svc"}},
	})
	h.Run(2 * time.Second)
	if ctr.Cgroup.CPU.QuotaUS >= 0 {
		t.Fatalf("bandwidth limit not removed: quota = %d us", ctr.Cgroup.CPU.QuotaUS)
	}
	if ctr.Cgroup.CPU.Shares == 1024 {
		t.Fatal("shares never rewritten from the default")
	}
}

func TestBankedSpendsOnBurst(t *testing.T) {
	// Idle first (the bank accrues the unused baseline), then a burst
	// wider than the baseline quota (the bank pays for a boost).
	h := host.New(host.Config{CPUs: 8, Memory: 16 * units.GiB, Seed: 1})
	h.EnableTelemetry(0)
	ctr := h.Runtime.Create(container.Spec{Name: "svc", CPUQuotaUS: 200_000, Gamma: 0.6})
	ctr.Exec("sysbench")
	Attach(h, Config{
		Interval: 100 * time.Millisecond,
		Policy:   Banked{BankCapMS: 3000, BurstCPUs: 3},
		Specs:    []Spec{{Name: "svc", MinCPUs: 1, MaxCPUs: 7}},
	})
	h.Run(1 * time.Second) // idle accrual
	sb := workloads.NewSysbench(h, ctr, 6, 6)
	sb.Start()
	h.Run(2 * time.Second)
	if h.Trace.Count(telemetry.CtrAutoscaleBankSpentMS) == 0 {
		t.Fatal("bank never spent on the burst")
	}
	// After the burst the policy returns to baseline.
	h.Run(2 * time.Second)
	if got := float64(ctr.Cgroup.CPU.QuotaUS) / 100_000; got != 2 {
		t.Fatalf("did not return to the 2-CPU baseline: %v CPUs", got)
	}
}

func TestStaticPolicyIsInert(t *testing.T) {
	h, _ := newLoadedHost(t, 8, 2, 6)
	before := h.Trace.Count(telemetry.CtrSnapshotsPublished)
	a := Attach(h, Config{Policy: Static{}, Specs: []Spec{{Name: "svc"}}})
	h.Run(2 * time.Second)
	if a.Rounds() != 0 {
		t.Fatalf("static autoscaler ran %d rounds", a.Rounds())
	}
	// The inert arm must not switch snapshot publication on: that is
	// what byte-identity across the goldens rests on.
	if got := h.Trace.Count(telemetry.CtrSnapshotsPublished); got != before {
		t.Fatalf("static autoscaler caused %d publications", got-before)
	}
	if h.Trace.Count(telemetry.CtrAutoscaleResizes) != 0 {
		t.Fatal("static autoscaler resized")
	}
}

func TestSpecSurvivesKillRestart(t *testing.T) {
	h, ctr := newLoadedHost(t, 8, 2, 6)
	a := Attach(h, Config{
		Interval: 50 * time.Millisecond,
		Policy:   Target{},
		Specs:    []Spec{{Name: "svc", MinCPUs: 1, MaxCPUs: 6}},
	})
	h.Run(500 * time.Millisecond)
	spec := ctr.Spec
	h.Runtime.Destroy(ctr)
	h.Run(300 * time.Millisecond) // rounds with the target absent are no-ops
	nc := h.Runtime.Create(spec)
	nc.Exec("sysbench")
	workloads.NewSysbench(h, nc, 6, 1e9).Start()
	h.Run(2 * time.Second)
	if got := float64(nc.Cgroup.CPU.QuotaUS) / 100_000; got <= 2 {
		t.Fatalf("restarted container not re-adopted and grown: %v CPUs", got)
	}
	if a.lastVersion == 0 {
		t.Fatal("no snapshot consumed")
	}
}
