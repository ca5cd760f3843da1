package faults

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/sim"
	"arv/internal/sysns"
	"arv/internal/telemetry"
	"arv/internal/units"
	"arv/internal/workloads"
)

func newHost() *host.Host {
	return host.New(host.Config{CPUs: 4, Memory: 8 * units.GiB, Seed: 7})
}

// view cuts a fresh snapshot of h and returns the named container's
// view: its update-round count and degradation flag.
func view(h *host.Host, name string) *sysns.ContainerView {
	return h.Monitor.Publish(h.Now()).Container(name)
}

// runWorkload executes a fixed mixed workload — two containers, two
// sysbench runs, a mid-run quota change and a mid-run memory-limit
// change — and returns the final snapshot rendering, all counters, and
// the full event trace.
func runWorkload(withInjector bool) (string, map[string]uint64, []telemetry.Event) {
	h := newHost()
	tr := h.EnableTelemetry(1 << 14)
	if withInjector {
		Attach(h, Config{})
	}
	a := h.Runtime.Create(container.Spec{Name: "a", CPUQuotaUS: 200_000})
	a.Exec("app")
	b := h.Runtime.Create(container.Spec{Name: "b"})
	b.Exec("app")
	workloads.NewSysbench(h, a, 2, 1.0).Start()
	workloads.NewSysbench(h, b, 4, 2.0).Start()
	h.Clock.After(100*time.Millisecond, func(sim.Time) { a.Cgroup.SetQuotaCPUs(3) })
	h.Clock.After(250*time.Millisecond, func(sim.Time) { b.Cgroup.SetMemLimits(2*units.GiB, units.GiB) })
	h.Run(2 * time.Second)
	var buf bytes.Buffer
	h.Snapshot().WriteTo(&buf)
	return buf.String(), tr.Counters(), tr.Events()
}

// A zero-config injector must be invisible: no RNG draws, no counter
// movement, no trace divergence — the run is byte-identical to one with
// no injector attached at all.
func TestZeroFaultInjectorIsByteIdentical(t *testing.T) {
	snapA, ctrsA, evsA := runWorkload(false)
	snapB, ctrsB, evsB := runWorkload(true)
	if snapA != snapB {
		t.Fatalf("snapshots diverge:\n--- without injector ---\n%s--- with injector ---\n%s", snapA, snapB)
	}
	if !reflect.DeepEqual(ctrsA, ctrsB) {
		t.Fatalf("counters diverge:\nwithout: %v\nwith:    %v", ctrsA, ctrsB)
	}
	if !reflect.DeepEqual(evsA, evsB) {
		t.Fatalf("event traces diverge: %d vs %d events", len(evsA), len(evsB))
	}
}

// With drop probability 1 every limit-change event is suppressed, so
// the counter equals the scripted change count exactly and the
// namespace bounds go stale until faults are lifted.
func TestEventDropExactCountersAndStaleBounds(t *testing.T) {
	h := newHost()
	tr := h.EnableTelemetry(0)
	inj := Attach(h, Config{EventDropProb: 1})
	ctr := h.Runtime.Create(container.Spec{Name: "a"})
	ctr.Exec("app")

	ctr.Cgroup.SetQuotaCPUs(2)
	ctr.Cgroup.SetShares(2048)
	ctr.Cgroup.SetMemLimits(2*units.GiB, units.GiB)
	if got := tr.Count(telemetry.CtrEventsDropped); got != 3 {
		t.Fatalf("events_dropped = %d, want 3", got)
	}
	if _, upper := ctr.NS.CPUBounds(); upper != 4 {
		t.Fatalf("upper = %d after dropped events, want stale 4", upper)
	}

	inj.SetEventFaults(0, 0, 0)
	ctr.Cgroup.SetQuotaCPUs(2) // delivered: recomputes from live values
	if _, upper := ctr.NS.CPUBounds(); upper != 2 {
		t.Fatalf("upper = %d after delivered event, want 2", upper)
	}
	if got := tr.Count(telemetry.CtrEventsDropped); got != 3 {
		t.Fatalf("events_dropped moved to %d after faults lifted", got)
	}
}

// A delayed event leaves the view stale for exactly the delay, then
// lands.
func TestEventDelayDefersRecompute(t *testing.T) {
	h := newHost()
	tr := h.EnableTelemetry(0)
	Attach(h, Config{EventDelay: 50 * time.Millisecond})
	ctr := h.Runtime.Create(container.Spec{Name: "a"})
	ctr.Exec("app")

	ctr.Cgroup.SetQuotaCPUs(2)
	if _, upper := ctr.NS.CPUBounds(); upper != 4 {
		t.Fatalf("upper = %d immediately after deferred event, want stale 4", upper)
	}
	h.Run(60 * time.Millisecond)
	if _, upper := ctr.NS.CPUBounds(); upper != 2 {
		t.Fatalf("upper = %d after redelivery, want 2", upper)
	}
	if got := tr.Count(telemetry.CtrEventsDelayed); got != 1 {
		t.Fatalf("events_delayed = %d, want 1", got)
	}
}

// With miss probability 1 no periodic round ever runs: the miss counter
// moves, the update counter does not.
func TestUpdateMissSuppressesAllRounds(t *testing.T) {
	h := newHost()
	tr := h.EnableTelemetry(0)
	Attach(h, Config{UpdateMissProb: 1})
	ctr := h.Runtime.Create(container.Spec{Name: "a"})
	ctr.Exec("app")

	h.Run(500 * time.Millisecond)
	if got := tr.Count(telemetry.CtrUpdatesMissed); got == 0 {
		t.Fatal("updates_missed = 0, want > 0")
	}
	if got := tr.Count(telemetry.CtrNSUpdates); got != 0 {
		t.Fatalf("sysns.updates = %d with all rounds missed, want 0", got)
	}
	if got := view(h, "a").Updates; got != 0 {
		t.Fatalf("namespace updates = %d, want 0", got)
	}
}

// Update lag postpones rounds without losing them: every lagged round
// eventually runs (at most one may still be in flight at cutoff).
func TestUpdateLagPostponesRounds(t *testing.T) {
	h := newHost()
	tr := h.EnableTelemetry(0)
	Attach(h, Config{UpdateLag: 10 * time.Millisecond})
	ctr := h.Runtime.Create(container.Spec{Name: "a"})
	ctr.Exec("app")

	h.Run(500 * time.Millisecond)
	lagged := tr.Count(telemetry.CtrUpdatesLagged)
	ran := view(h, "a").Updates
	if lagged == 0 {
		t.Fatal("updates_lagged = 0, want > 0")
	}
	if ran != lagged && ran != lagged-1 {
		t.Fatalf("namespace ran %d rounds, %d were lagged: want equal (mod one in flight)", ran, lagged)
	}
}

// A bounded churn rule fires exactly Count times, and every written
// quota stays inside the configured range.
func TestChurnExactCountAndRange(t *testing.T) {
	h := newHost()
	tr := h.EnableTelemetry(0)
	inj := Attach(h, Config{Seed: 3})
	ctr := h.Runtime.Create(container.Spec{Name: "a"})
	ctr.Exec("app")

	inj.StartChurn(ChurnRule{
		Target:       "a",
		Interval:     50 * time.Millisecond,
		MinQuotaCPUs: 1,
		MaxQuotaCPUs: 3,
		Count:        4,
	})
	h.Run(time.Second)
	if got := tr.Count(telemetry.CtrLimitChurns); got != 4 {
		t.Fatalf("limit_churns = %d, want exactly 4", got)
	}
	if q := ctr.Cgroup.CPU.QuotaUS; q < 100_000 || q > 300_000 {
		t.Fatalf("final quota %d outside churn range [100000, 300000]", q)
	}
}

// A churn rule caches its target cgroup but follows it across a
// kill-and-restart and picks up a target that is created only after the
// rule is armed. Firings on a missing target still draw, so the churned
// values are exactly the injector's RNG stream in firing order.
func TestChurnReresolvesRestartedAndLateTargets(t *testing.T) {
	const seed = 5
	h := newHost()
	tr := h.EnableTelemetry(1 << 12)
	inj := Attach(h, Config{Seed: seed})
	victim := h.Runtime.Create(container.Spec{Name: "victim"})
	victim.Exec("app")

	rule := func(target string) ChurnRule {
		return ChurnRule{Target: target, Interval: 50 * time.Millisecond, MinQuotaCPUs: 1, MaxQuotaCPUs: 4}
	}
	inj.StartChurn(rule("victim"))
	inj.StartChurn(rule("late"))
	var restarted, late *container.Container
	// victim is gone over (110ms, 170ms), so its 150ms firing is a no-op.
	inj.ScheduleKill(KillRule{
		Target: "victim", At: 110 * time.Millisecond,
		Restart: true, RestartDelay: 60 * time.Millisecond,
		OnRestart: func(nc *container.Container) { restarted = nc },
	})
	// late exists from 220ms, so its first live firing is at 250ms.
	h.Clock.After(220*time.Millisecond, func(sim.Time) {
		late = h.Runtime.Create(container.Spec{Name: "late"})
		late.Exec("app")
	})
	h.Run(500 * time.Millisecond)

	// Both rules fire every 50ms, victim's first: draw k belongs to
	// firing k/2 of rule k%2.
	rng := sim.NewRNG(seed)
	var want []telemetry.Event
	var lastQuota [2]int64
	for k := 0; k < 20; k++ {
		quota := 1 + rng.Float64()*3
		at := time.Duration(k/2+1) * 50 * time.Millisecond
		alive := at != 150*time.Millisecond
		if k%2 == 1 {
			alive = at > 220*time.Millisecond
		}
		if alive {
			want = append(want, telemetry.Event{At: at, Kind: telemetry.KindFault, Actor: "churn", A: int64(quota * 1000)})
			lastQuota[k%2] = int64(quota * 100_000)
		}
	}
	var got []telemetry.Event
	for _, e := range tr.EventsOf(telemetry.KindFault) {
		if e.Actor == "churn" {
			got = append(got, e)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("churn firings diverge from the RNG stream:\n got %v\nwant %v", got, want)
	}
	if restarted == nil || late == nil {
		t.Fatal("restart or late creation never ran")
	}
	if q := restarted.Cgroup.CPU.QuotaUS; q != lastQuota[0] {
		t.Fatalf("restarted victim quota = %d, want the last churned %d", q, lastQuota[0])
	}
	if q := late.Cgroup.CPU.QuotaUS; q != lastQuota[1] {
		t.Fatalf("late target quota = %d, want the last churned %d", q, lastQuota[1])
	}
}

// churnScheduleDigest and churnScheduleEvents pin the churn schedule of
// TestChurnScheduleDigest: FNV-64a over every churn trace event's (At,
// A, B) in firing order, and how many there are.
const (
	churnScheduleDigest = 0xe047afd095cf7095
	churnScheduleEvents = 4373
)

// The churn schedule — which rule fires when, and what it writes — is a
// pure function of the seed, the rules and the lifecycle of their
// targets. 64 jittered rules with mixed quota and memory ranges, some
// bounded by Count, run for 2 s while one target is killed and
// restarted and another is created late; the hash of every churn event
// must match the committed digest, so a change to how rules are stored
// or timers are queued cannot move a single firing or draw.
func TestChurnScheduleDigest(t *testing.T) {
	h := newHost()
	tr := h.EnableTelemetry(1 << 15)
	inj := Attach(h, Config{Seed: 11})
	const rules = 64
	name := func(i int) string {
		if i == rules-1 {
			return "late"
		}
		return fmt.Sprintf("c%02d", i)
	}
	for i := 0; i < rules-1; i++ {
		h.Runtime.Create(container.Spec{Name: name(i)}).Exec("app")
	}
	for i := 0; i < rules; i++ {
		r := ChurnRule{
			Target:   name(i),
			Interval: time.Duration(20+5*(i%7)) * time.Millisecond,
			Jitter:   0.1 * float64(1+i%4),
		}
		if i%3 != 2 {
			r.MinQuotaCPUs, r.MaxQuotaCPUs = 0.5, float64(1+i%4)
		}
		if i%3 != 0 {
			r.MinMemHard, r.MaxMemHard = units.GiB, units.Bytes(2+i%3)*units.GiB
			r.SoftFrac = 0.25 * float64(i%4)
		}
		if i%5 == 4 {
			r.Count = 3 + i%6
		}
		inj.StartChurn(r)
	}
	inj.ScheduleKill(KillRule{Target: name(7), At: 400 * time.Millisecond, Restart: true, RestartDelay: 150 * time.Millisecond})
	h.Clock.After(700*time.Millisecond, func(sim.Time) {
		h.Runtime.Create(container.Spec{Name: name(rules - 1)}).Exec("app")
	})
	h.Run(2 * time.Second)

	if tr.Dropped() != 0 {
		t.Fatalf("trace ring overwrote %d events", tr.Dropped())
	}
	if got := tr.Count(telemetry.CtrKills); got != 1 {
		t.Fatalf("kills = %d, want 1", got)
	}
	sum := fnv.New64a()
	var buf [24]byte
	n := 0
	for _, e := range tr.EventsOf(telemetry.KindFault) {
		if e.Actor != "churn" {
			continue
		}
		binary.LittleEndian.PutUint64(buf[0:], uint64(e.At))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.A))
		binary.LittleEndian.PutUint64(buf[16:], uint64(e.B))
		sum.Write(buf[:])
		n++
	}
	if got := tr.Count(telemetry.CtrLimitChurns); got != uint64(n) {
		t.Fatalf("limit_churns = %d, but %d churn events", got, n)
	}
	if got := sum.Sum64(); got != churnScheduleDigest || n != churnScheduleEvents {
		t.Fatalf("churn schedule digest = %#x over %d events, want %#x over %d",
			got, n, uint64(churnScheduleDigest), churnScheduleEvents)
	}
}

// Kill-and-restart: the victim's workload self-terminates instead of
// panicking in the scheduler, and the restarted container is live with
// the same spec.
func TestKillAndRestart(t *testing.T) {
	h := newHost()
	tr := h.EnableTelemetry(0)
	inj := Attach(h, Config{})
	ctr := h.Runtime.Create(container.Spec{Name: "victim", CPUQuotaUS: 200_000})
	ctr.Exec("app")
	workloads.NewSysbench(h, ctr, 2, 10.0).Start() // far more work than the run allows

	var restarted *container.Container
	inj.ScheduleKill(KillRule{
		Target:       "victim",
		At:           100 * time.Millisecond,
		Restart:      true,
		RestartDelay: 50 * time.Millisecond,
		OnRestart:    func(nc *container.Container) { restarted = nc },
	})
	h.Run(300 * time.Millisecond)

	if got := tr.Count(telemetry.CtrKills); got != 1 {
		t.Fatalf("kills = %d, want 1", got)
	}
	if restarted == nil {
		t.Fatal("OnRestart never ran")
	}
	if restarted.State() != container.Running {
		t.Fatalf("restarted container state = %v, want running", restarted.State())
	}
	if restarted.Spec.CPUQuotaUS != 200_000 {
		t.Fatalf("restarted quota = %d, want the original 200000", restarted.Spec.CPUQuotaUS)
	}
	live := h.Runtime.Containers()
	if len(live) != 1 || live[0].Name != "victim" {
		t.Fatalf("live containers = %v, want exactly the restarted victim", live)
	}
	// RunUntilDone with no time left reports whether every registered
	// program has finished.
	if !h.RunUntilDone(0) {
		t.Fatal("the killed sysbench must retire")
	}
	var sawRestart bool
	for _, e := range tr.EventsOf(telemetry.KindFault) {
		if e.Actor == "restart" {
			sawRestart = true
		}
	}
	if !sawRestart {
		t.Fatal("no restart trace event")
	}
}

// The injector reads the host's tracer when it counts, so a tracer
// enabled after Attach (a scenario that arms faults before it turns
// tracing on) still sees every churn and kill.
func TestTelemetryEnabledAfterAttachCounts(t *testing.T) {
	h := newHost()
	inj := Attach(h, Config{Seed: 3})
	h.Runtime.Create(container.Spec{Name: "a"}).Exec("app")
	h.Runtime.Create(container.Spec{Name: "victim"}).Exec("app")
	inj.StartChurn(ChurnRule{Target: "a", Interval: 50 * time.Millisecond, MinQuotaCPUs: 1, MaxQuotaCPUs: 3, Count: 4})
	inj.ScheduleKill(KillRule{Target: "victim", At: 100 * time.Millisecond, Restart: true, RestartDelay: 50 * time.Millisecond})
	tr := h.EnableTelemetry(0)
	h.Run(time.Second)
	if got := tr.Count(telemetry.CtrLimitChurns); got != 4 {
		t.Fatalf("limit_churns = %d, want 4", got)
	}
	if got := tr.Count(telemetry.CtrKills); got != 1 {
		t.Fatalf("kills = %d, want 1", got)
	}
	var restarts int
	for _, e := range tr.EventsOf(telemetry.KindFault) {
		if e.Actor == "restart" {
			restarts++
		}
	}
	if restarts != 1 {
		t.Fatalf("%d restart events, want 1", restarts)
	}
}

// The fault schedule is a pure function of the injector seed.
func TestFaultScheduleDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []telemetry.Event {
		h := newHost()
		tr := h.EnableTelemetry(1 << 14)
		inj := Attach(h, Config{Seed: seed, EventDropProb: 0.5, EventDelay: 5 * time.Millisecond, EventDelayJitter: 0.5})
		ctr := h.Runtime.Create(container.Spec{Name: "a"})
		ctr.Exec("app")
		inj.StartChurn(ChurnRule{
			Target:       "a",
			Interval:     20 * time.Millisecond,
			Jitter:       0.5,
			MinQuotaCPUs: 1,
			MaxQuotaCPUs: 4,
			Count:        16,
		})
		h.Run(2 * time.Second)
		return tr.EventsOf(telemetry.KindFault)
	}
	a1, a2, b := run(3), run(3), run(4)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("same seed, different fault schedule: %d vs %d events", len(a1), len(a2))
	}
	if reflect.DeepEqual(a1, b) {
		t.Fatal("different seeds produced an identical fault schedule")
	}
}

// Staleness budget: when all update rounds are missed, the view ages
// past the budget, the conservative fallback engages, and the first
// clean round clears it.
func TestStalenessFallbackEngagesAndClears(t *testing.T) {
	h := newHost()
	tr := h.EnableTelemetry(0)
	inj := Attach(h, Config{UpdateMissProb: 1})
	h.Monitor.SetDegradation(100*time.Millisecond, 0)
	ctr := h.Runtime.Create(container.Spec{Name: "a"})
	ctr.Exec("a")

	h.Run(200 * time.Millisecond)
	if !view(h, "a").Degraded {
		t.Fatal("namespace not degraded after aging past the budget")
	}
	lower, _ := ctr.NS.CPUBounds()
	if got := ctr.NS.EffectiveCPU(); got != lower {
		t.Fatalf("degraded E_CPU = %d, want lower bound %d", got, lower)
	}
	if tr.Count(telemetry.CtrStaleFallbacks) == 0 {
		t.Fatal("staleness_fallbacks = 0, want > 0")
	}

	inj.SetMonitorFaults(0, 0, 0)
	h.Run(100 * time.Millisecond)
	if view(h, "a").Degraded {
		t.Fatal("namespace still degraded after a clean update round")
	}
}

// Resync repairs bounds drift caused by dropped events and backs its
// interval off when no drift is found.
func TestResyncRepairsDroppedEventDrift(t *testing.T) {
	h := newHost()
	tr := h.EnableTelemetry(0)
	inj := Attach(h, Config{EventDropProb: 1})
	h.Monitor.SetDegradation(0, 50*time.Millisecond)
	ctr := h.Runtime.Create(container.Spec{Name: "a"})
	ctr.Exec("a")

	ctr.Cgroup.SetQuotaCPUs(2) // dropped
	if _, upper := ctr.NS.CPUBounds(); upper != 4 {
		t.Fatalf("upper = %d, want stale 4 before resync", upper)
	}
	h.Run(100 * time.Millisecond)
	if _, upper := ctr.NS.CPUBounds(); upper != 2 {
		t.Fatalf("upper = %d, want 2 after resync repair", upper)
	}
	if tr.Count(telemetry.CtrRecomputeRetries) == 0 {
		t.Fatal("recompute_retries = 0, want > 0")
	}
	inj.SetEventFaults(0, 0, 0)

	// With no further drift the retry interval doubles: intervals in the
	// KindResync trace must be non-decreasing after the repair.
	h.Run(2 * time.Second)
	evs := tr.EventsOf(telemetry.KindResync)
	if len(evs) < 3 {
		t.Fatalf("only %d resync events, want >= 3", len(evs))
	}
	var last int64
	for _, e := range evs[1:] { // evs[0] may be the drift-reset pass
		if e.A == 1 {
			continue
		}
		if e.B < last {
			t.Fatalf("resync interval shrank without drift: %v", evs)
		}
		last = e.B
	}
}

// BenchmarkChurnFire is the churn driver on its own at the headline
// point: 16 384 containers with one jittered quota-and-memory churn
// rule each (the scalebench shape, 250 ms ± 30 %), warmed up until
// every rule has fired, then one clock tick per op — about 65 firings,
// each with its timer re-arm, its two limit writes and the cgroup
// events they raise. Must be 0 allocs/op.
func BenchmarkChurnFire(b *testing.B) {
	const n = 16384
	h := host.New(host.Config{CPUs: 64, Memory: 512 * units.GiB, Seed: 1})
	inj := Attach(h, Config{Seed: 2})
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("c%05d", i)
		h.Runtime.Create(container.Spec{Name: name, MemHard: units.GiB, MemSoft: units.GiB / 2}).Exec("app")
		inj.StartChurn(ChurnRule{
			Target:       name,
			Interval:     250 * time.Millisecond,
			Jitter:       0.3,
			MinQuotaCPUs: 1, MaxQuotaCPUs: 4,
			MinMemHard: units.GiB, MaxMemHard: 4 * units.GiB,
		})
	}
	h.Run(500 * time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Clock.Step()
	}
}

// Warm only reads. For a rule with a live cached target, one whose
// cached target was destroyed since, and one that never fired (nothing
// cached), a Warm call leaves the rule's record, its target's limits,
// the injector's RNG and the host's counters exactly as they were, and
// does not panic.
func TestChurnWarmIsReadOnly(t *testing.T) {
	h := newHost()
	inj := Attach(h, Config{Seed: 3})
	for _, name := range []string{"live", "doomed"} {
		h.Runtime.Create(container.Spec{Name: name, MemHard: units.GiB}).Exec("app")
	}
	arm := func(target string, interval time.Duration) *churnState {
		s := inj.newChurn(ChurnRule{
			Target: target, Interval: interval,
			MinQuotaCPUs: 1, MaxQuotaCPUs: 3,
			MinMemHard: units.GiB, MaxMemHard: 2 * units.GiB,
		})
		h.Clock.Arm(&s.alarm, interval, s)
		return s
	}
	live := arm("live", 10*time.Millisecond)
	doomed := arm("doomed", 10*time.Millisecond)
	never := arm("live", time.Hour)
	h.Run(15 * time.Millisecond)
	if live.cg == nil || doomed.cg == nil || never.cg != nil {
		t.Fatalf("setup: cached targets live=%v doomed=%v never=%v", live.cg, doomed.cg, never.cg)
	}
	h.Runtime.Destroy(h.Runtime.Containers()[1])
	if !doomed.cg.Removed() {
		t.Fatal("setup: doomed target still live")
	}

	type limits struct {
		shares, quota, period int64
		cpuset                int
		hard, soft            units.Bytes
	}
	limitsOf := func(s *churnState) limits {
		if s.cg == nil {
			return limits{}
		}
		g, m := s.cg.CPU, s.cg.Mem
		return limits{g.Shares, g.QuotaUS, g.PeriodUS, g.CpusetN, m.HardLimit, m.SoftLimit}
	}
	for name, s := range map[string]*churnState{"live": live, "destroyed": doomed, "never fired": never} {
		rec, lim, rng, ctrs := *s, limitsOf(s), *inj.rng, h.Trace.Counters()
		s.Warm()
		if *s != rec {
			t.Errorf("%s: Warm changed the rule's record", name)
		}
		if got := limitsOf(s); got != lim {
			t.Errorf("%s: Warm changed the target's limits: %+v, was %+v", name, got, lim)
		}
		if *inj.rng != rng {
			t.Errorf("%s: Warm drew from the injector's RNG", name)
		}
		if got := h.Trace.Counters(); !reflect.DeepEqual(got, ctrs) {
			t.Errorf("%s: Warm moved counters: %v, was %v", name, got, ctrs)
		}
	}
}
