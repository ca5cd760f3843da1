package sysns_test

import (
	"fmt"
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/faults"
	"arv/internal/host"
	"arv/internal/sysns"
	"arv/internal/units"
	"arv/internal/workloads"
)

// buildDifferentialHost constructs one of a mirrored pair: identical
// seeds, containers, workloads, and fault schedule, differing only in
// the monitor path — the production mark-and-flush path or, with
// fullRecompute, the full-recompute-per-trigger reference — and, with
// observed, in whether snapshot publication is on (every cut is one more
// flush boundary). Because the fault layer draws from its own seeded RNG
// and the monitor path never consumes randomness, the two hosts see
// byte-identical event and churn schedules — any divergence in view
// state is the incremental path's fault.
func buildDifferentialHost(observed, fullRecompute bool) *host.Host {
	h := host.New(host.Config{
		CPUs:   8,
		Memory: 16 * units.GiB,
		Seed:   11,
	})
	if fullRecompute {
		sysns.UseFullRecompute(h.Monitor)
	}
	if observed {
		h.Monitor.WarmSnapshot()
	}
	inj := faults.Attach(h, faults.Config{
		Seed:             5,
		EventDropProb:    0.3,
		EventDelay:       8 * time.Millisecond,
		EventDelayJitter: 0.5,
		UpdateLag:        3 * time.Millisecond,
		UpdateLagJitter:  0.5,
		UpdateMissProb:   0.2,
	})
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("c%d", i)
		c := h.Runtime.Create(container.Spec{
			Name:      name,
			CPUShares: int64(512 + 256*i),
			MemHard:   units.Bytes(1+i%3) * units.GiB,
			MemSoft:   units.Bytes(1+i%3) * units.GiB / 2,
		})
		c.Exec("app")
		workloads.NewSysbench(h, c, 1+i%3, 5.0).Start()
		inj.StartChurn(faults.ChurnRule{
			Target:       name,
			Interval:     40 * time.Millisecond,
			Jitter:       0.4,
			MinQuotaCPUs: 1,
			MaxQuotaCPUs: 6,
			MinMemHard:   1 * units.GiB,
			MaxMemHard:   4 * units.GiB,
			SoftFrac:     0.5,
		})
	}
	inj.ScheduleKill(faults.KillRule{
		Target:       "c2",
		At:           300 * time.Millisecond,
		Restart:      true,
		RestartDelay: 40 * time.Millisecond,
	})
	return h
}

// TestIncrementalMatchesFullUnderFaults is the end-to-end differential
// check for the monitor's incremental recompute: two full hosts under an
// aggressive fault mix — dropped and delayed limit events, lagged and
// missed update rounds, per-container limit churn, and a kill-restart —
// sampled every 25 simulated milliseconds. Every namespace's CPU bounds,
// effective CPU, and effective memory must match the full-recompute
// reference at every sample, including across the suppression-recovery
// path (dropped events force the incremental cache to resynchronize at
// the next delivered trigger, the same instant the full walk absorbs the
// lost change).
func TestIncrementalMatchesFullUnderFaults(t *testing.T) {
	hA := buildDifferentialHost(false, false) // incremental
	hB := buildDifferentialHost(false, true)  // full recompute per trigger

	for step := 0; step < 40; step++ {
		hA.Run(25 * time.Millisecond)
		hB.Run(25 * time.Millisecond)

		ctrsA, ctrsB := hA.Runtime.Containers(), hB.Runtime.Containers()
		if len(ctrsA) != len(ctrsB) {
			t.Fatalf("sample %d: container counts diverged: %d vs %d", step, len(ctrsA), len(ctrsB))
		}
		byName := make(map[string]*container.Container, len(ctrsB))
		for _, c := range ctrsB {
			byName[c.Name] = c
		}
		for _, a := range ctrsA {
			b := byName[a.Name]
			if b == nil {
				t.Fatalf("sample %d: %s live on incremental host only", step, a.Name)
			}
			if (a.NS == nil) != (b.NS == nil) {
				t.Fatalf("sample %d: %s namespace presence diverged", step, a.Name)
			}
			if a.NS == nil {
				continue
			}
			al, au := a.NS.CPUBounds()
			bl, bu := b.NS.CPUBounds()
			if al != bl || au != bu {
				t.Fatalf("sample %d: %s bounds diverged: incremental [%d,%d], full [%d,%d]",
					step, a.Name, al, au, bl, bu)
			}
			if ea, eb := a.NS.EffectiveCPU(), b.NS.EffectiveCPU(); ea != eb {
				t.Fatalf("sample %d: %s E_CPU diverged: incremental %d, full %d", step, a.Name, ea, eb)
			}
			if ma, mb := a.NS.EffectiveMemory(), b.NS.EffectiveMemory(); ma != mb {
				t.Fatalf("sample %d: %s E_MEM diverged: incremental %d, full %d", step, a.Name, ma, mb)
			}
		}
	}
}

// TestBatchedMatchesFullUnderFaults is the differential arm for a
// different batching of the marks: the same mirrored-host construction,
// but the candidate host has a snapshot consumer, so every observe-phase
// cut is one more flush boundary and the marks coalesce into smaller
// batches. Bounds are a function of delivered inputs, so where the
// flushes fall must not matter: CPU bounds must match the
// full-recompute reference exactly at every sample, across dropped
// events (the suppression-recovery FullRecompute runs at the next
// delivered trigger), delayed redeliveries, lagged and missed update
// rounds, and the kill-restart. Effective memory never reads bounds, so
// it must match exactly too. Effective CPU is only pinned inside the
// bounds: the clamp is stateful, and the reference clamps through every
// trigger's intermediate bounds state (DESIGN.md §14).
func TestBatchedMatchesFullUnderFaults(t *testing.T) {
	hA := buildDifferentialHost(true, false)
	hB := buildDifferentialHost(false, true)

	for step := 0; step < 40; step++ {
		hA.Run(25 * time.Millisecond)
		hB.Run(25 * time.Millisecond)

		ctrsA, ctrsB := hA.Runtime.Containers(), hB.Runtime.Containers()
		if len(ctrsA) != len(ctrsB) {
			t.Fatalf("sample %d: container counts diverged: %d vs %d", step, len(ctrsA), len(ctrsB))
		}
		byName := make(map[string]*container.Container, len(ctrsB))
		for _, c := range ctrsB {
			byName[c.Name] = c
		}
		for _, a := range ctrsA {
			b := byName[a.Name]
			if b == nil {
				t.Fatalf("sample %d: %s live on observed host only", step, a.Name)
			}
			if (a.NS == nil) != (b.NS == nil) {
				t.Fatalf("sample %d: %s namespace presence diverged", step, a.Name)
			}
			if a.NS == nil {
				continue
			}
			al, au := a.NS.CPUBounds() // a flush boundary
			bl, bu := b.NS.CPUBounds()
			if al != bl || au != bu {
				t.Fatalf("sample %d: %s bounds diverged: observed [%d,%d], full [%d,%d]",
					step, a.Name, al, au, bl, bu)
			}
			if e := a.NS.EffectiveCPU(); e < al || e > au {
				t.Fatalf("sample %d: %s observed E_CPU %d outside bounds [%d,%d]", step, a.Name, e, al, au)
			}
			if ma, mb := a.NS.EffectiveMemory(), b.NS.EffectiveMemory(); ma != mb {
				t.Fatalf("sample %d: %s E_MEM diverged: observed %d, full %d", step, a.Name, ma, mb)
			}
		}
	}
}
