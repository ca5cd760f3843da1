package sysns

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"arv/internal/cfs"
	"arv/internal/cgroups"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
)

type fixture struct {
	clock *sim.Clock
	sched *cfs.Scheduler
	mem   *memctl.Controller
	hier  *cgroups.Hierarchy
	mon   *Monitor
}

func newFixture(cpus int, memTotal units.Bytes) *fixture {
	clock := sim.NewClock(time.Millisecond)
	sched := cfs.NewScheduler(cpus)
	mem := memctl.New(memctl.Config{Total: memTotal})
	hier := cgroups.NewHierarchy(sched, mem)
	mon := NewMonitor(hier, clock, Options{})
	return &fixture{clock, sched, mem, hier, mon}
}

func (f *fixture) attach(name string) (*cgroups.Cgroup, *SysNamespace) {
	cg := f.hier.Create(name)
	return cg, f.mon.Attach(cg)
}

// --- Algorithm 1: bounds ---

func TestBoundsUnconstrainedSoloContainer(t *testing.T) {
	f := newFixture(20, 128*units.GiB)
	_, ns := f.attach("a")
	lower, upper := ns.CPUBounds()
	if upper != 20 {
		t.Fatalf("upper = %d, want 20", upper)
	}
	if lower != 20 { // only container: its share is everything
		t.Fatalf("lower = %d, want 20", lower)
	}
	if ns.EffectiveCPU() != lower {
		t.Fatal("E_CPU must initialize to the lower bound")
	}
}

func TestBoundsQuota(t *testing.T) {
	f := newFixture(20, 128*units.GiB)
	cg, ns := f.attach("a")
	cg.SetQuotaCPUs(4)
	if _, upper := ns.CPUBounds(); upper != 4 {
		t.Fatalf("upper = %d, want 4 (quota)", upper)
	}
	cg.SetQuotaCPUs(0.5) // fractional: at least one CPU is exported
	if _, upper := ns.CPUBounds(); upper != 1 {
		t.Fatalf("upper = %d, want 1", upper)
	}
}

func TestBoundsCpuset(t *testing.T) {
	f := newFixture(20, 128*units.GiB)
	cg, ns := f.attach("a")
	cg.SetCpuset(2)
	if _, upper := ns.CPUBounds(); upper != 2 {
		t.Fatalf("upper = %d, want |M| = 2", upper)
	}
}

func TestBoundsShares(t *testing.T) {
	f := newFixture(20, 128*units.GiB)
	_, nsA := f.attach("a")
	for i := 0; i < 4; i++ {
		f.attach(string(rune('b' + i)))
	}
	// 5 equal containers on 20 CPUs: guaranteed share is 4 each.
	if lower, _ := nsA.CPUBounds(); lower != 4 {
		t.Fatalf("lower = %d, want ceil(1/5 * 20) = 4", lower)
	}
}

func TestBoundsRecomputedOnContainerChurn(t *testing.T) {
	f := newFixture(20, 128*units.GiB)
	_, nsA := f.attach("a")
	cgB, _ := f.attach("b")
	if lower, _ := nsA.CPUBounds(); lower != 10 {
		t.Fatalf("lower with 2 containers = %d, want 10", lower)
	}
	f.hier.Remove(cgB) // ns_monitor detaches via the Removed event
	if lower, _ := nsA.CPUBounds(); lower != 20 {
		t.Fatalf("lower after churn = %d, want 20", lower)
	}
	if f.mon.nsOf(cgB) != nil {
		t.Fatal("removed cgroup still has a namespace")
	}
}

func TestShareBoundsWeighted(t *testing.T) {
	f := newFixture(16, 128*units.GiB)
	cgA, nsA := f.attach("a")
	_, nsB := f.attach("b")
	cgA.SetShares(3 * 1024)
	if lower, _ := nsA.CPUBounds(); lower != 12 {
		t.Fatalf("3:1 shares on 16 CPUs: lower = %d, want 12", lower)
	}
	if lower, _ := nsB.CPUBounds(); lower != 4 {
		t.Fatalf("1:3 shares on 16 CPUs: lower = %d, want 4", lower)
	}
}

// --- Algorithm 1: dynamic adjustment ---

func TestEffectiveCPUGrowsOnSlackAndHighUtil(t *testing.T) {
	f := newFixture(8, 16*units.GiB)
	cg, ns := f.attach("a")
	f.attach("b") // lower bound becomes 4
	cg.SetQuotaCPUs(8)
	ns.CPUBounds()                            // flush the marks before writing slot state
	ns.slotCPU().eCPU = ns.slotCPU().lowerCPU // start from the guaranteed share (4)
	window := 24 * time.Millisecond
	use := units.CPUSeconds(float64(ns.EffectiveCPU()) * window.Seconds() * 0.99)
	ns.UpdateCPU(0, window, use, 1 /* slack */)
	if ns.EffectiveCPU() != 5 {
		t.Fatalf("E_CPU = %d after busy+slack update, want 5", ns.EffectiveCPU())
	}
}

func TestEffectiveCPUStaysOnLowUtil(t *testing.T) {
	f := newFixture(8, 16*units.GiB)
	_, ns := f.attach("a")
	f.attach("b")
	before := ns.EffectiveCPU()
	ns.UpdateCPU(0, 24*time.Millisecond, 0.01, 1)
	if ns.EffectiveCPU() != before {
		t.Fatal("E_CPU grew despite low utilization")
	}
}

func TestEffectiveCPUShrinksWithoutSlack(t *testing.T) {
	f := newFixture(8, 16*units.GiB)
	_, ns := f.attach("a")
	ns.CPUBounds() // flush the marks before writing slot state
	ns.slotCPU().eCPU = 8
	ns.slotCPU().lowerCPU = 2
	ns.UpdateCPU(0, 24*time.Millisecond, 1, 0)
	if ns.EffectiveCPU() != 7 {
		t.Fatalf("E_CPU = %d, want 7 (one step down)", ns.EffectiveCPU())
	}
	for i := 0; i < 20; i++ {
		ns.UpdateCPU(0, 24*time.Millisecond, 1, 0)
	}
	if ns.EffectiveCPU() != 2 {
		t.Fatalf("E_CPU = %d, must stop at the lower bound", ns.EffectiveCPU())
	}
}

func TestEffectiveCPUStepLimit(t *testing.T) {
	// "Changes to effective CPU are limited to 1 per update."
	f := newFixture(16, 16*units.GiB)
	cg, ns := f.attach("a")
	f.attach("b")
	cg.SetQuotaCPUs(16)
	ns.CPUBounds()                            // flush the marks before writing slot state
	ns.slotCPU().eCPU = ns.slotCPU().lowerCPU // far below the upper bound
	before := ns.EffectiveCPU()
	busy := units.CPUSeconds(float64(before) * 0.024)
	ns.UpdateCPU(0, 24*time.Millisecond, busy, 5)
	if got := ns.EffectiveCPU() - before; got != 1 {
		t.Fatalf("E_CPU jumped by %d in one update", got)
	}
}

// TestEffectiveCPUInvariantProperty: E_CPU never leaves [lower, upper]
// under arbitrary update sequences.
func TestEffectiveCPUInvariantProperty(t *testing.T) {
	f := func(updates []bool, quota uint8) bool {
		fx := newFixture(16, 16*units.GiB)
		cg, ns := fx.attach("a")
		fx.attach("b")
		if quota%4 != 0 {
			cg.SetQuotaCPUs(float64(quota%16) + 1)
		}
		for _, busy := range updates {
			var use units.CPUSeconds
			var slack units.CPUSeconds
			if busy {
				use = units.CPUSeconds(float64(ns.EffectiveCPU()) * 0.024)
				slack = 1
			}
			ns.UpdateCPU(0, 24*time.Millisecond, use, slack)
			lower, upper := ns.CPUBounds()
			if e := ns.EffectiveCPU(); e < lower || e > upper {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// --- Algorithm 2 ---

func TestEffectiveMemoryInitToSoft(t *testing.T) {
	f := newFixture(8, 16*units.GiB)
	cg, _ := f.attach("a")
	cg.SetMemLimits(4*units.GiB, units.GiB)
	ns := f.mon.nsOf(cg)
	ns.ResetMemory()
	if ns.EffectiveMemory() != units.GiB {
		t.Fatalf("E_MEM = %v, want soft limit", ns.EffectiveMemory())
	}
}

func TestEffectiveMemoryDefaultsWhenUnset(t *testing.T) {
	f := newFixture(8, 16*units.GiB)
	_, ns := f.attach("a")
	if ns.EffectiveMemory() != 16*units.GiB {
		t.Fatalf("unlimited container E_MEM = %v, want host total", ns.EffectiveMemory())
	}
	cg2, _ := f.attach("b")
	cg2.SetMemLimits(2*units.GiB, 0)
	ns2 := f.mon.nsOf(cg2)
	ns2.ResetMemory()
	if ns2.EffectiveMemory() != 2*units.GiB {
		t.Fatalf("no-soft-limit E_MEM = %v, want hard limit", ns2.EffectiveMemory())
	}
}

func TestEffectiveMemoryGrowsTowardHard(t *testing.T) {
	f := newFixture(8, 16*units.GiB)
	cg, ns := f.attach("a")
	cg.SetMemLimits(4*units.GiB, units.GiB)
	ns.ResetMemory()
	// Use > 90% of effective memory with plenty of free host memory.
	f.mem.Charge(cg.Mem, units.GiB-10*units.MiB, 0)
	ns.UpdateMem(0)
	want := units.GiB + 3*units.GiB/10
	if ns.EffectiveMemory() != want {
		t.Fatalf("E_MEM = %v, want %v (one 10%% step)", ns.EffectiveMemory(), want)
	}
}

func TestEffectiveMemoryStaysOnLowUsage(t *testing.T) {
	f := newFixture(8, 16*units.GiB)
	cg, ns := f.attach("a")
	cg.SetMemLimits(4*units.GiB, units.GiB)
	ns.ResetMemory()
	f.mem.Charge(cg.Mem, 100*units.MiB, 0)
	ns.UpdateMem(0)
	if ns.EffectiveMemory() != units.GiB {
		t.Fatalf("E_MEM = %v, want unchanged at soft", ns.EffectiveMemory())
	}
}

func TestEffectiveMemoryResetsOnShortage(t *testing.T) {
	f := newFixture(8, 16*units.GiB)
	cg, ns := f.attach("a")
	cg.SetMemLimits(4*units.GiB, units.GiB)
	ns.ResetMemory()
	ns.slotMem().eMem = 3 * units.GiB // pretend it grew
	hog := f.hier.Create("hog")
	f.mem.Charge(hog.Mem, f.mem.Free()-f.mem.LowWM+units.MiB, 0)
	ns.UpdateMem(0)
	if ns.EffectiveMemory() != units.GiB {
		t.Fatalf("E_MEM = %v after shortage, want reset to soft", ns.EffectiveMemory())
	}
}

func TestEffectiveMemoryPredictionBlocksGrowth(t *testing.T) {
	// If the predicted free-memory cost of the increment would cross the
	// high watermark, growth is denied even with high utilization.
	f := newFixture(8, 2*units.GiB)
	cg, ns := f.attach("a")
	cg.SetMemLimits(1536*units.MiB, 512*units.MiB)
	ns.ResetMemory()
	f.mem.Charge(cg.Mem, 500*units.MiB, 0)
	hog := f.hier.Create("hog")
	// Free barely above the low watermark.
	f.mem.Charge(hog.Mem, f.mem.Free()-f.mem.LowWM-30*units.MiB, 0)
	ns.UpdateMem(0)
	if ns.EffectiveMemory() != 512*units.MiB {
		t.Fatalf("E_MEM = %v, growth should be denied near the watermark", ns.EffectiveMemory())
	}
}

func TestEffectiveMemoryCapsAtHard(t *testing.T) {
	f := newFixture(8, 64*units.GiB)
	cg, ns := f.attach("a")
	cg.SetMemLimits(2*units.GiB, 1900*units.MiB)
	ns.ResetMemory()
	for i := 0; i < 100; i++ {
		f.mem.Uncharge(cg.Mem, cg.Mem.Resident())
		f.mem.Charge(cg.Mem, ns.EffectiveMemory()-units.MiB, 0)
		ns.UpdateMem(sim.Time(i) * time.Millisecond)
	}
	if ns.EffectiveMemory() > 2*units.GiB {
		t.Fatalf("E_MEM = %v exceeded the hard limit", ns.EffectiveMemory())
	}
}

// --- Monitor timer ---

func TestMonitorPeriodTracksSchedPeriod(t *testing.T) {
	f := newFixture(8, 16*units.GiB)
	if p := f.mon.Period(); p != 24*time.Millisecond {
		t.Fatalf("idle period = %v, want 24ms", p)
	}
	cg, _ := f.attach("a")
	for i := 0; i < 12; i++ {
		task := f.sched.NewTask(cg.CPU, "t")
		f.sched.SetRunnable(task, true)
	}
	f.sched.Tick(0, time.Millisecond)
	if p := f.mon.Period(); p != 36*time.Millisecond {
		t.Fatalf("period with 12 tasks = %v, want 36ms", p)
	}
	f.mon.FixedPeriod = 100 * time.Millisecond
	if p := f.mon.Period(); p != 100*time.Millisecond {
		t.Fatalf("fixed period = %v", p)
	}
}

func TestMonitorTimerUpdatesNamespaces(t *testing.T) {
	f := newFixture(8, 16*units.GiB)
	cg, ns := f.attach("a")
	f.mon.Start()
	task := f.sched.NewTask(cg.CPU, "t")
	f.sched.SetRunnable(task, true)
	for i := 0; i < 100; i++ {
		f.sched.Tick(f.clock.Now()+time.Millisecond, time.Millisecond)
		f.clock.Step()
	}
	if ns.slotMeta().updates == 0 {
		t.Fatal("monitor timer never updated the namespace")
	}
}

func TestDisableGrowthOption(t *testing.T) {
	clock := sim.NewClock(time.Millisecond)
	sched := cfs.NewScheduler(8)
	mem := memctl.New(memctl.Config{Total: 16 * units.GiB})
	hier := cgroups.NewHierarchy(sched, mem)
	mon := NewMonitor(hier, clock, Options{DisableGrowth: true})
	cg := hier.Create("a")
	ns := mon.Attach(cg)
	hier.Create("b") // not attached: shares still count only attached
	busy := units.CPUSeconds(float64(ns.EffectiveCPU()) * 0.024)
	ns.UpdateCPU(0, 24*time.Millisecond, busy, 5)
	if lower, _ := ns.CPUBounds(); ns.EffectiveCPU() != lower {
		t.Fatal("DisableGrowth must pin E_CPU at the lower bound")
	}
}

// TestUpdateRoundTraceKeepsRingTail runs update rounds over more
// namespaces than the trace ring holds. The round writes every event,
// so the ring must end holding the last ring-capacity KindNSUpdate
// events in attach order, carrying each namespace's E_CPU and E_MEM,
// while Emitted counts every namespace of every round.
func TestUpdateRoundTraceKeepsRingTail(t *testing.T) {
	const ringCap, n = 8, 21
	f := newFixture(16, 64*units.GiB)
	tr := telemetry.New(ringCap)
	f.mon.Trace = tr
	var spaces []*SysNamespace
	for i := 0; i < n; i++ {
		_, ns := f.attach(fmt.Sprintf("c%02d", i))
		spaces = append(spaces, ns)
	}
	for round := 1; round <= 2; round++ {
		now := sim.Time(round) * 24 * time.Millisecond
		f.mon.UpdateAll(now)
		if got := tr.Emitted(); got != uint64(round*n) {
			t.Fatalf("round %d: Emitted() = %d, want %d", round, got, round*n)
		}
		if got := tr.Dropped(); got != uint64(round*n-ringCap) {
			t.Fatalf("round %d: Dropped() = %d, want %d", round, got, round*n-ringCap)
		}
		evs := tr.Events()
		if len(evs) != ringCap {
			t.Fatalf("round %d: %d events retained, want %d", round, len(evs), ringCap)
		}
		for i, e := range evs {
			ns := spaces[n-ringCap+i]
			want := telemetry.Event{At: now, Kind: telemetry.KindNSUpdate, Actor: ns.cg.Name,
				A: int64(ns.EffectiveCPU()), B: int64(ns.EffectiveMemory())}
			if e != want {
				t.Fatalf("round %d: event %d = %v, want %v", round, i, e, want)
			}
		}
	}
}
