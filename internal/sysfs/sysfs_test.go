package sysfs

import (
	"strings"
	"testing"
	"time"

	"arv/internal/cfs"
	"arv/internal/cgroups"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/sysns"
	"arv/internal/units"
)

type fixture struct {
	sched *cfs.Scheduler
	mem   *memctl.Controller
	hier  *cgroups.Hierarchy
	mon   *sysns.Monitor
	host  *HostView
	res   *Resolver
}

func newFixture() *fixture {
	sched := cfs.NewScheduler(20)
	mem := memctl.New(memctl.Config{Total: 128 * units.GiB})
	hier := cgroups.NewHierarchy(sched, mem)
	mon := sysns.NewMonitor(hier, sim.NewClock(time.Millisecond), sysns.Options{})
	hv := &HostView{Sched: sched, Mem: mem}
	return &fixture{sched, mem, hier, mon, hv, NewResolver(hv)}
}

func TestHostViewSysconf(t *testing.T) {
	f := newFixture()
	cases := map[Sysconf]int64{
		ScNProcessorsOnln: 20,
		ScNProcessorsConf: 20,
		ScPhysPages:       (128 * units.GiB).Pages(),
		ScAvPhysPages:     (128 * units.GiB).Pages(),
		ScPageSize:        4096,
	}
	for name, want := range cases {
		got, err := f.host.Sysconf(name)
		if err != nil || got != want {
			t.Errorf("host sysconf(%v) = %d, %v; want %d", name, got, err, want)
		}
	}
	if _, err := f.host.Sysconf(Sysconf(99)); err == nil {
		t.Error("unknown sysconf should error")
	}
}

func TestNSViewRedirectsToEffectiveResources(t *testing.T) {
	f := newFixture()
	cg := f.hier.Create("a")
	cg.SetQuotaCPUs(4)
	cg.SetMemLimits(2*units.GiB, units.GiB)
	ns := f.mon.Attach(cg)
	v := f.res.For(ns)

	if got := v.OnlineCPUs(); got != ns.EffectiveCPU() {
		t.Fatalf("container online CPUs = %d, want E_CPU %d", got, ns.EffectiveCPU())
	}
	// The glibc memory-size formula must yield effective memory.
	pages, _ := v.Sysconf(ScPhysPages)
	psize, _ := v.Sysconf(ScPageSize)
	if got := units.Bytes(pages * psize); got != ns.EffectiveMemory() {
		t.Fatalf("_SC_PHYS_PAGES * _SC_PAGESIZE = %v, want E_MEM %v", got, ns.EffectiveMemory())
	}
}

func TestNSViewAvailablePages(t *testing.T) {
	f := newFixture()
	cg := f.hier.Create("a")
	cg.SetMemLimits(2*units.GiB, units.GiB)
	ns := f.mon.Attach(cg)
	v := f.res.For(ns)
	f.mem.Charge(cg.Mem, 600*units.MiB, 0)
	av, _ := v.Sysconf(ScAvPhysPages)
	want := (units.GiB - 600*units.MiB).Pages()
	if av != want {
		t.Fatalf("available pages = %d, want %d", av, want)
	}
	// Usage above effective memory must clamp to zero, not go negative.
	f.mem.Charge(cg.Mem, 600*units.MiB, 0)
	if av, _ = v.Sysconf(ScAvPhysPages); av != 0 {
		t.Fatalf("over-used available pages = %d, want 0", av)
	}
}

func TestCPUOnlineFileFormats(t *testing.T) {
	f := newFixture()
	got, err := f.host.ReadFile("/sys/devices/system/cpu/online")
	if err != nil || got != "0-19\n" {
		t.Fatalf("host online file = %q, %v", got, err)
	}
	cg := f.hier.Create("a")
	cg.SetCpuset(1)
	ns := f.mon.Attach(cg)
	v := f.res.For(ns)
	if got, _ := v.ReadFile("/sys/devices/system/cpu/online"); got != "0\n" {
		t.Fatalf("single-CPU online file = %q", got)
	}
}

func TestCPUDirListing(t *testing.T) {
	f := newFixture()
	cg := f.hier.Create("a")
	cg.SetCpuset(3)
	ns := f.mon.Attach(cg)
	v := f.res.For(ns)
	got, err := v.ReadFile("/sys/devices/system/cpu")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cpu0", "cpu1", "cpu2", "online"} {
		if !strings.Contains(got, want) {
			t.Errorf("cpu dir missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "cpu3") {
		t.Errorf("cpu dir lists cpu3 for a 3-CPU view")
	}
}

func TestMeminfo(t *testing.T) {
	f := newFixture()
	cg := f.hier.Create("a")
	cg.SetMemLimits(0, units.GiB)
	ns := f.mon.Attach(cg)
	got, err := f.res.For(ns).ReadFile("/proc/meminfo")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "MemTotal:") {
		t.Fatalf("meminfo malformed: %q", got)
	}
	wantKB := int64(units.GiB) / 1024
	if !strings.Contains(got, "1048576") || wantKB != 1048576 {
		t.Fatalf("meminfo should report 1GiB (=%d kB): %q", wantKB, got)
	}
}

func TestCpuinfoProcessorCount(t *testing.T) {
	f := newFixture()
	got, _ := f.host.ReadFile("/proc/cpuinfo")
	if n := strings.Count(got, "processor"); n != 20 {
		t.Fatalf("cpuinfo lists %d processors, want 20", n)
	}
}

func TestProcStatCPULines(t *testing.T) {
	f := newFixture()
	cg := f.hier.Create("a")
	cg.SetQuotaCPUs(4)
	ns := f.mon.Attach(cg)
	got, err := f.res.For(ns).ReadFile("/proc/stat")
	if err != nil {
		t.Fatal(err)
	}
	// One aggregate line plus one per effective CPU.
	if n := strings.Count(got, "cpu"); n != 5 {
		t.Fatalf("/proc/stat lists %d cpu lines, want 5:\n%s", n, got)
	}
}

func TestLoadavgFile(t *testing.T) {
	f := newFixture()
	got, err := f.host.ReadFile("/proc/loadavg")
	if err != nil || !strings.HasPrefix(got, "0.00 ") {
		t.Fatalf("loadavg = %q, %v", got, err)
	}
}

func TestUnknownPath(t *testing.T) {
	f := newFixture()
	_, err := f.host.ReadFile("/sys/does/not/exist")
	if _, ok := err.(ErrNoEnt); !ok {
		t.Fatalf("error = %v, want ErrNoEnt", err)
	}
	if !strings.Contains(err.Error(), "/sys/does/not/exist") {
		t.Fatal("error should name the path")
	}
}

func TestResolverRouting(t *testing.T) {
	f := newFixture()
	if v := f.res.For(nil); v != View(f.host) {
		t.Fatal("ordinary processes must resolve to the host view")
	}
	cg := f.hier.Create("a")
	ns := f.mon.Attach(cg)
	if v, ok := f.res.For(ns).(*NSView); !ok || v.NS != ns || v.Host != f.host {
		t.Fatal("a namespaced process must resolve to its namespace's virtual view over the host view")
	}
}

func TestSysconfString(t *testing.T) {
	if ScNProcessorsOnln.String() != "_SC_NPROCESSORS_ONLN" {
		t.Fatal("sysconf name broken")
	}
	if !strings.Contains(Sysconf(42).String(), "42") {
		t.Fatal("unknown sysconf name broken")
	}
}
