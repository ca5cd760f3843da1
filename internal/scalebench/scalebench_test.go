package scalebench

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"arv/internal/telemetry"
)

// short returns a small, fast configuration for unit tests.
func short(n int, churn bool) Config {
	cfg := Defaults(n)
	cfg.Churn = churn
	cfg.Span = 200 * time.Millisecond
	cfg.Warmup = 50 * time.Millisecond
	return cfg
}

// TestBuildShape checks the synthetic host has the advertised container
// count and runnable-task spread.
func TestBuildShape(t *testing.T) {
	b := Build(short(32, false))
	if got := len(b.H.Runtime.Containers()); got != 32 {
		t.Fatalf("containers = %d, want 32", got)
	}
	runnable := 0
	for _, g := range b.H.Sched.Groups() {
		runnable += g.RunnableTasks()
	}
	if runnable != 8 {
		t.Fatalf("runnable tasks = %d, want 8 (every 4th of 32)", runnable)
	}
	// A snapshot carries one view per attached namespace.
	if got := len(b.H.Monitor.Publish(b.H.Now()).Containers); got != 32 {
		t.Fatalf("namespaces = %d, want 32", got)
	}
}

// TestChurnFires checks the churn schedule actually rewrites limits and
// that equal seeds give equal schedules (the telemetry counters of two
// identically configured runs must match exactly).
func TestChurnFires(t *testing.T) {
	counts := func() (churns, updates uint64) {
		b := Build(short(16, true))
		b.H.Run(500 * time.Millisecond)
		return b.H.Trace.Count(telemetry.CtrLimitChurns), b.H.Trace.Count(telemetry.CtrNSUpdates)
	}
	c1, u1 := counts()
	c2, u2 := counts()
	if c1 == 0 {
		t.Fatal("churn armed but no limit rewrites fired")
	}
	if c1 != c2 || u1 != u2 {
		t.Fatalf("same seed diverged: churns %d vs %d, updates %d vs %d", c1, c2, u1, u2)
	}
}

// TestRingOnlyObserves builds one churning configuration twice from a
// fixed seed and gives one copy an event ring right after Build: after
// the same warmup and span both copies hold identical counters and
// identical per-group rates, while the ring has wrapped. A ring only
// observes, so a scale host without one reports the same counters.
func TestRingOnlyObserves(t *testing.T) {
	cfg := short(256, true)
	cfg.Seed = 5
	plain, ringed := Build(cfg), Build(cfg)
	tr := ringed.H.EnableTelemetry(64)
	rates := func(b *Bench) []uint64 {
		b.H.Run(b.Cfg.Warmup + b.Cfg.Span)
		var out []uint64
		for _, g := range b.H.Sched.Groups() {
			out = append(out, math.Float64bits(g.LastRate()))
		}
		return out
	}
	if p, r := rates(plain), rates(ringed); !reflect.DeepEqual(p, r) {
		t.Fatal("an event ring changed the per-group rates")
	}
	if p, r := plain.H.Trace.Counters(), tr.Counters(); !reflect.DeepEqual(p, r) {
		t.Fatalf("an event ring changed the counters:\nwithout %v\nwith    %v", p, r)
	}
	if plain.H.Trace.Count(telemetry.CtrLimitChurns) == 0 {
		t.Fatal("churn armed but no limit rewrites fired")
	}
	if plain.H.Trace.Emitted() != 0 {
		t.Fatalf("the ring-less host recorded %d events", plain.H.Trace.Emitted())
	}
	if tr.Dropped() == 0 {
		t.Fatalf("the 64-event ring never wrapped (%d events)", tr.Emitted())
	}
}

// TestRunReportsProgress checks Run's derived metrics are populated.
func TestRunReportsProgress(t *testing.T) {
	res := Run(short(16, true))
	if res.Ticks == 0 || res.NSUpdates == 0 || res.LimitChurns == 0 {
		t.Fatalf("counters not populated: %+v", res)
	}
	if res.NsPerSimSec <= 0 || res.SimSeconds != 0.2 {
		t.Fatalf("timing not populated: %+v", res)
	}
}

// TestWindowSettlesVisitOnlyActiveGroups counts the view round's settle
// pass on a churn-free host of 256 containers with one busy container in
// 64: 256 cfs groups, 4 of them active. Over the span every round
// updates all 256 views (sysns.updates) but settles only the 4 active
// groups (cfs.window_settles, added once per pass).
func TestWindowSettlesVisitOnlyActiveGroups(t *testing.T) {
	cfg := short(256, false)
	cfg.RunnableEvery = 64
	b := Build(cfg)
	b.H.Run(cfg.Warmup)
	if got := len(b.H.Sched.Groups()); got != 256 {
		t.Fatalf("groups = %d, want 256", got)
	}
	tr := b.H.Trace
	updates, settles := tr.Count(telemetry.CtrNSUpdates), tr.Count(telemetry.CtrWindowSettles)
	b.H.Run(cfg.Span)
	updates, settles = tr.Count(telemetry.CtrNSUpdates)-updates, tr.Count(telemetry.CtrWindowSettles)-settles
	rounds := updates / 256
	if rounds == 0 || updates != rounds*256 {
		t.Fatalf("sysns.updates = %d over the span, want a positive multiple of 256", updates)
	}
	if settles != rounds*4 {
		t.Fatalf("cfs.window_settles = %d over %d rounds, want %d (4 active groups per round)", settles, rounds, rounds*4)
	}
}

// TestCommittedScaleRows re-runs every committed BENCH_scale.json row,
// up to n = 16 384, and holds its simulated work to the committed
// record: scheduler ticks, repair ticks, namespace updates and limit
// churns must match exactly. Wall time and allocations are
// machine-dependent and left to the bench gate.
func TestCommittedScaleRows(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_scale.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []Result `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) == 0 {
		t.Fatal("no BENCH_scale.json row")
	}
	for _, want := range doc.Runs {
		cfg := Defaults(want.Containers)
		cfg.CPUs = want.CPUs
		cfg.Churn = want.Churn
		cfg.ChurnInterval = time.Duration(want.ChurnMS * float64(time.Millisecond))
		cfg.Span = time.Duration(want.SimSeconds * float64(time.Second))
		got := Run(cfg)
		if got.Ticks != want.Ticks || got.TickRepairs != want.TickRepairs ||
			got.NSUpdates != want.NSUpdates || got.LimitChurns != want.LimitChurns {
			t.Errorf("n=%d: sched_ticks %d, tick_repairs %d, ns_updates %d, limit_churns %d; committed %d, %d, %d, %d",
				want.Containers, got.Ticks, got.TickRepairs, got.NSUpdates, got.LimitChurns,
				want.Ticks, want.TickRepairs, want.NSUpdates, want.LimitChurns)
		}
	}
}
