package workloads

import (
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/jvm"
	"arv/internal/telemetry"
	"arv/internal/units"
)

func TestAllProfilesResolvable(t *testing.T) {
	for _, n := range DaCapoAllNames {
		w := DaCapo(n)
		if w.Name != n || w.TotalWork <= 0 || w.Threads <= 0 || w.MinHeap <= 0 {
			t.Errorf("DaCapo(%s) malformed: %+v", n, w)
		}
	}
	for _, n := range SPECjvmAllNames {
		w := SPECjvm(n)
		if w.Name != n || w.TotalWork <= 0 {
			t.Errorf("SPECjvm(%s) malformed", n)
		}
	}
	for _, n := range HiBenchNames {
		w := HiBench(n)
		if w.LiveSet < units.GiB {
			t.Errorf("HiBench(%s) should have a multi-GiB live set", n)
		}
	}
	for _, n := range NPBNames {
		k := NPB(n)
		if k.Name != n || k.Regions <= 0 || k.WorkPerRegion <= 0 {
			t.Errorf("NPB(%s) malformed", n)
		}
	}
}

func TestUnknownNamesPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"dacapo":  func() { DaCapo("nope") },
		"specjvm": func() { SPECjvm("nope") },
		"hibench": func() { HiBench("nope") },
		"npb":     func() { NPB("nope") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestExtendedProfilesRunnable(t *testing.T) {
	// Every extended profile completes on an idle host without failing.
	for _, n := range []string{"avrora", "batik", "eclipse", "fop", "luindex", "pmd", "tomcat", "tradebeans", "compress", "crypto", "scimark", "serial"} {
		w, err := JVMByName(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		w.TotalWork /= 10 // smoke scale
		h := host.New(host.Config{CPUs: 8, Memory: 32 * units.GiB, Seed: 1})
		ctr := h.Runtime.Create(container.Spec{Name: "c", Gamma: 0.5})
		ctr.Exec("java")
		j := jvm.New(h, ctr, w, jvm.Config{Policy: jvm.Adaptive, Xmx: 3 * w.MinHeap})
		j.Start()
		if !h.RunUntilDone(time.Hour) {
			t.Fatalf("%s did not finish", n)
		}
		if j.Failed() {
			t.Fatalf("%s failed: %v", n, j.FailReason())
		}
	}
}

func TestJVMByName(t *testing.T) {
	for _, n := range []string{"h2", "derby", "kmeans", "microbench", "pmd", "crypto"} {
		w, err := JVMByName(n)
		if err != nil || w.Name != n {
			t.Errorf("JVMByName(%s) = %v, %v", n, w.Name, err)
		}
	}
	if _, err := JVMByName("nope"); err == nil {
		t.Error("unknown name must error")
	}
}

func TestMicroBenchShape(t *testing.T) {
	w := MicroBench()
	// §5.3: 40,000 x 1 MiB allocated, half stays live -> 20 GiB working
	// set out of ~40 GiB touched.
	total := units.Bytes(float64(w.TotalWork) * float64(w.AllocPerCPUSec))
	if total < 39*units.GiB || total > 41*units.GiB {
		t.Fatalf("total allocation = %v, want ~40GiB", total)
	}
	if w.LiveFracOfAllocated != 0.5 || w.LiveSet != 20*units.GiB {
		t.Fatalf("live shape wrong: frac=%v live=%v", w.LiveFracOfAllocated, w.LiveSet)
	}
}

func TestNPBEpLeastSensitive(t *testing.T) {
	// ep is embarrassingly parallel: it must have the lowest gamma and
	// serial fraction of the suite.
	ep := NPB("ep")
	for _, n := range NPBNames {
		if n == "ep" {
			continue
		}
		k := NPB(n)
		if k.Gamma < ep.Gamma {
			t.Errorf("%s gamma %v below ep's %v", n, k.Gamma, ep.Gamma)
		}
		if k.SerialFrac < ep.SerialFrac {
			t.Errorf("%s serial %v below ep's %v", n, k.SerialFrac, ep.SerialFrac)
		}
	}
}

func TestSysbenchRunsAndExits(t *testing.T) {
	h := host.New(host.Config{CPUs: 4, Memory: 4 * units.GiB, Seed: 1})
	ctr := h.Runtime.Create(container.Spec{Name: "sb"})
	ctr.Exec("sysbench")
	s := NewSysbench(h, ctr, 2, 4) // 4 CPU-s over 2 threads = 2s
	s.Start()
	if !h.RunUntilDone(time.Minute) {
		t.Fatal("sysbench did not finish")
	}
	// The host started at 0 and RunUntilDone returns on the tick the
	// program finished, so the clock reads the run's wall time.
	got := h.Now()
	if got < 1900*time.Millisecond || got > 2200*time.Millisecond {
		t.Fatalf("exec time = %v, want ~2s", got)
	}
}

func TestSysbenchDefaultsThreads(t *testing.T) {
	h := host.New(host.Config{CPUs: 4, Memory: 4 * units.GiB, Seed: 1})
	ctr := h.Runtime.Create(container.Spec{Name: "sb"})
	ctr.Exec("sysbench")
	s := NewSysbench(h, ctr, 0, 1)
	s.Start()
	if !h.RunUntilDone(time.Minute) {
		t.Fatal("sysbench with default threads did not finish")
	}
}

func TestMemHogAcquiresHoldsReleases(t *testing.T) {
	h := host.New(host.Config{CPUs: 4, Memory: 8 * units.GiB, Seed: 1})
	ctr := h.Runtime.Create(container.Spec{Name: "hog"})
	ctr.Exec("memhog")
	tr := h.EnableTelemetry(0)
	m := NewMemHog(h, ctr, units.GiB, 4*units.GiB, 500*time.Millisecond)
	m.Start()
	h.RunUntil(m.Full, time.Minute)
	if m.acquired != units.GiB {
		t.Fatalf("resident = %v at full", m.acquired)
	}
	if ctr.Cgroup.Mem.Resident() != units.GiB {
		t.Fatal("cgroup not charged")
	}
	if !h.RunUntilDone(time.Minute) {
		t.Fatal("memhog did not release and exit")
	}
	if ctr.Cgroup.Mem.Resident() != 0 {
		t.Fatal("memory not released")
	}
	if n := tr.Count(telemetry.CtrOOMKills); n != 0 {
		t.Fatalf("hog should not have been killed: %d OOM kills", n)
	}
}

func TestMemHogHoldForever(t *testing.T) {
	h := host.New(host.Config{CPUs: 4, Memory: 8 * units.GiB, Seed: 1})
	ctr := h.Runtime.Create(container.Spec{Name: "hog"})
	ctr.Exec("memhog")
	m := NewMemHog(h, ctr, units.GiB, 4*units.GiB, 0)
	m.Start()
	h.Run(2 * time.Second)
	if m.Done() {
		t.Fatal("hold=0 hog must never exit")
	}
	if m.acquired != units.GiB {
		t.Fatalf("resident = %v", m.acquired)
	}
}

func TestProberRetriesWhenSnapshotLacksContainer(t *testing.T) {
	// Regression test for the warm-up race: when the prober's first
	// burst reads a snapshot that does not carry its container yet, the
	// old code declared the prober done and silently stopped probing.
	// Reproduce the shape deterministically by probing a container the
	// monitor never tracks (it lives on a different host): every burst
	// must count as missed and the prober must keep retrying until its
	// deadline, not die on the first miss.
	hA := host.New(host.Config{CPUs: 4, Memory: units.GiB, Seed: 1})
	ctr := hA.Runtime.Create(container.Spec{Name: "probe-me"})
	ctr.Exec("x")
	hB := host.New(host.Config{CPUs: 4, Memory: units.GiB, Seed: 2})
	p := NewProber(hB, ctr, 10*time.Millisecond, 4, 100*time.Millisecond)
	p.Start()
	hB.Run(150 * time.Millisecond)
	if !p.Done() {
		t.Fatal("prober must finish at its deadline")
	}
	if p.MissedBursts == 0 {
		t.Fatal("expected missed bursts while the snapshot lacks the container")
	}
	if p.MissedBursts < 5 {
		t.Fatalf("prober stopped retrying: only %d missed bursts", p.MissedBursts)
	}
	if p.Bursts != 0 || p.Probes != 0 {
		t.Fatalf("no burst can complete: bursts=%d probes=%d", p.Bursts, p.Probes)
	}
}

func TestMemHogKilledOnOOM(t *testing.T) {
	h := host.New(host.Config{CPUs: 4, Memory: 2 * units.GiB, SwapCapacity: 64 * units.MiB, Seed: 1})
	a := h.Runtime.Create(container.Spec{Name: "a"})
	a.Exec("x")
	// A pinned resident group that direct reclaim will try to swap.
	h.Mem.Charge(a.Cgroup.Mem, units.GiB, 0)
	ctr := h.Runtime.Create(container.Spec{Name: "hog"})
	ctr.Exec("memhog")
	m := NewMemHog(h, ctr, 4*units.GiB, 16*units.GiB, 0)
	m.Start()
	h.Run(5 * time.Second)
	// A hold=0 hog finishes only by dying, short of its target.
	if !m.Done() || m.acquired >= m.Target {
		t.Fatal("hog should be OOM-killed when memory and swap are exhausted")
	}
}
