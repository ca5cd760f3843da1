package autoscaler

import (
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/faults"
	"arv/internal/host"
	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
	"arv/internal/workloads"
)

// The fault differential test: run the same autoscaled workload once
// fault-free and once under the full fault mix (event drops/delays,
// update lag/miss, limit churn, kill-restart) and assert the
// autoscaler's contract holds on both sides — snapshot versions are
// only ever read monotonically, and the control loop degrades to the
// policy's conservative arm exactly when the sysns staleness fallback
// fires. `make race` runs this under the race detector, covering the
// lock-free snapshot reads the control loop depends on.

// diffResult is one run's observable outcome.
type diffResult struct {
	rounds       uint64
	resizes      uint64
	conservative uint64
	fallbacks    uint64
}

func runAutoscaledWorkload(t *testing.T, withFaults bool) diffResult {
	t.Helper()
	h := host.New(host.Config{CPUs: 8, Memory: 16 * units.GiB, Seed: 1})
	tr := h.EnableTelemetry(0)
	// Pin the update period so view ages are identical on both sides,
	// then bound staleness: only the faulted run can exceed the budget.
	h.Monitor.FixedPeriod = 20 * time.Millisecond
	h.Monitor.SetDegradation(60*time.Millisecond, 100*time.Millisecond)

	svc := h.Runtime.Create(container.Spec{Name: "svc", CPUQuotaUS: 200_000, Gamma: 0.6})
	svc.Exec("sysbench")
	workloads.NewSysbench(h, svc, 6, 1e9).Start()
	decoy := h.Runtime.Create(container.Spec{Name: "decoy", CPUQuotaUS: 100_000, Gamma: 0.6})
	decoy.Exec("sysbench")
	workloads.NewSysbench(h, decoy, 2, 1e9).Start()

	a := Attach(h, Config{
		Interval: 50 * time.Millisecond,
		Policy:   Target{},
		Specs:    []Spec{{Name: "svc", MinCPUs: 0.5, MaxCPUs: 6}},
	})

	if withFaults {
		inj := faults.Attach(h, faults.Config{
			Seed:             7,
			EventDropProb:    0.3,
			EventDelay:       5 * time.Millisecond,
			EventDelayJitter: 0.5,
			UpdateLag:        50 * time.Millisecond,
			UpdateLagJitter:  0.5,
			UpdateMissProb:   0.4,
		})
		inj.StartChurn(faults.ChurnRule{
			Target:       "decoy",
			Interval:     40 * time.Millisecond,
			Jitter:       0.5,
			MinQuotaCPUs: 0.5,
			MaxQuotaCPUs: 2,
		})
		inj.ScheduleKill(faults.KillRule{
			Target:       "decoy",
			At:           400 * time.Millisecond,
			Restart:      true,
			RestartDelay: 100 * time.Millisecond,
		})
	}

	// Sample version monotonicity at a cadence unaligned with the
	// control rounds (the engine additionally panics on regression).
	lastSeen := uint64(0)
	h.Clock.Every(23*time.Millisecond, func(now sim.Time) {
		if v := a.lastVersion; v < lastSeen {
			t.Errorf("at %v: last consumed version regressed %d -> %d", now, lastSeen, v)
		} else {
			lastSeen = v
		}
	})
	h.Run(2 * time.Second)
	return diffResult{
		rounds:       a.Rounds(),
		resizes:      tr.Count(telemetry.CtrAutoscaleResizes),
		conservative: a.ConservativeRounds(),
		fallbacks:    tr.Count(telemetry.CtrStaleFallbacks),
	}
}

func TestAutoscalerDifferentialUnderFaultMix(t *testing.T) {
	clean := runAutoscaledWorkload(t, false)
	faulted := runAutoscaledWorkload(t, true)

	if clean.rounds == 0 || faulted.rounds == 0 {
		t.Fatalf("control loop dead: clean %d rounds, faulted %d rounds", clean.rounds, faulted.rounds)
	}
	if clean.resizes == 0 {
		t.Fatal("clean run applied no resizes")
	}
	if clean.fallbacks != 0 {
		t.Fatalf("clean run hit %d staleness fallbacks", clean.fallbacks)
	}
	if clean.conservative != 0 {
		t.Fatalf("clean run degraded to the conservative arm %d times", clean.conservative)
	}
	if faulted.fallbacks == 0 {
		t.Fatal("fault mix never tripped the staleness budget (test lost its teeth)")
	}
	if faulted.conservative == 0 {
		t.Fatal("stale fallbacks fired but the autoscaler never took its conservative arm")
	}
}

// TestVersionMonotoneUnderFaults samples the last consumed snapshot
// version on a timer unaligned with control rounds and asserts the
// sequence never regresses while the full fault mix runs.
func TestVersionMonotoneUnderFaults(t *testing.T) {
	h := host.New(host.Config{CPUs: 8, Memory: 16 * units.GiB, Seed: 3})
	h.EnableTelemetry(0)
	h.Monitor.FixedPeriod = 20 * time.Millisecond
	h.Monitor.SetDegradation(60*time.Millisecond, 100*time.Millisecond)
	svc := h.Runtime.Create(container.Spec{Name: "svc", CPUQuotaUS: 200_000, Gamma: 0.6})
	svc.Exec("sysbench")
	workloads.NewSysbench(h, svc, 6, 1e9).Start()
	a := Attach(h, Config{
		Interval: 50 * time.Millisecond,
		Policy:   Banked{BankCapMS: 2000, BurstCPUs: 2},
		Specs:    []Spec{{Name: "svc", MinCPUs: 1, MaxCPUs: 6}},
	})
	faults.Attach(h, faults.Config{
		Seed:           11,
		EventDropProb:  0.4,
		UpdateLag:      40 * time.Millisecond,
		UpdateMissProb: 0.5,
	})
	var last uint64
	samples := 0
	h.Clock.Every(23*time.Millisecond, func(now sim.Time) {
		if v := a.lastVersion; v < last {
			t.Errorf("at %v: last consumed version regressed %d -> %d", now, last, v)
		} else {
			last = v
		}
		samples++
	})
	h.Run(2 * time.Second)
	if a.lastVersion == 0 {
		t.Fatal("no snapshot consumed")
	}
	if samples < 50 {
		t.Fatalf("sampler barely ran: %d samples", samples)
	}
}
