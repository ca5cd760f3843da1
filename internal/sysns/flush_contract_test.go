package sysns_test

import (
	"testing"
	"time"

	"arv/internal/cfs"
	"arv/internal/cgroups"
	"arv/internal/memctl"
	"arv/internal/sim"
	"arv/internal/sysfs"
	"arv/internal/sysns"
	"arv/internal/units"
)

// TestNSViewFlushContract pins which virtual-sysfs probes are bounds
// flush boundaries (DESIGN.md §14): a CPU probe or a pseudo-file read
// applies deferred bounds marks, while memory and page-size probes leave
// them deferred.
func TestNSViewFlushContract(t *testing.T) {
	sched := cfs.NewScheduler(8)
	mem := memctl.New(memctl.Config{Total: 16 * units.GiB})
	hier := cgroups.NewHierarchy(sched, mem)
	mon := sysns.NewMonitor(hier, sim.NewClock(time.Millisecond), sysns.Options{})
	a := hier.Create("a")
	b := hier.Create("b")
	v := &sysfs.NSView{NS: mon.Attach(a), Host: &sysfs.HostView{Sched: sched, Mem: mem}}
	mon.Attach(b)

	shares := int64(1024)
	deferMark := func(what string) {
		t.Helper()
		shares *= 2
		b.SetShares(shares)
		if !mon.BoundsDeferred() {
			t.Fatalf("%s: sibling shares change left no deferred bounds mark", what)
		}
	}

	deferMark("memory probes")
	for _, name := range []sysfs.Sysconf{sysfs.ScPhysPages, sysfs.ScAvPhysPages, sysfs.ScPageSize} {
		if _, err := v.Sysconf(name); err != nil {
			t.Fatal(err)
		}
		if !mon.BoundsDeferred() {
			t.Fatalf("Sysconf(%v) flushed the deferred bounds mark", name)
		}
	}
	for _, name := range []sysfs.Sysconf{sysfs.ScNProcessorsOnln, sysfs.ScNProcessorsConf} {
		deferMark(name.String())
		if _, err := v.Sysconf(name); err != nil {
			t.Fatal(err)
		}
		if mon.BoundsDeferred() {
			t.Fatalf("Sysconf(%v) left the bounds mark deferred", name)
		}
	}
	deferMark("ReadFile")
	if _, err := v.ReadFile("/proc/meminfo"); err != nil {
		t.Fatal(err)
	}
	if mon.BoundsDeferred() {
		t.Fatal("ReadFile left the bounds mark deferred")
	}
}
