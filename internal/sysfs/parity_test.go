package sysfs

import (
	"fmt"
	"testing"
	"time"

	"arv/internal/cgroups"
	"arv/internal/sysns"
	"arv/internal/units"
)

// sysconfNames and pseudoFiles are every name sysconf answers and every
// path renderFile serves, each plus one unknown entry.
var (
	sysconfNames = []Sysconf{ScNProcessorsOnln, ScNProcessorsConf, ScPhysPages, ScAvPhysPages, ScPageSize, Sysconf(99)}
	pseudoFiles  = []string{
		"/sys/devices/system/cpu/online", "/sys/devices/system/cpu/possible",
		"/sys/devices/system/cpu/present", "/sys/devices/system/cpu",
		"/proc/cpuinfo", "/proc/meminfo", "/proc/loadavg", "/proc/stat", "/proc/nope",
	}
)

// probe renders every sysconf name and pseudo-file of v, errors included.
func probe(v View) []string {
	var out []string
	for _, name := range sysconfNames {
		n, err := v.Sysconf(name)
		out = append(out, fmt.Sprintf("%v = %d, %v", name, n, err))
	}
	for _, path := range pseudoFiles {
		s, err := v.ReadFile(path)
		out = append(out, fmt.Sprintf("%s = %q, %v", path, s, err))
	}
	return out
}

func sameLines(t *testing.T, what string, live, snap []string) {
	t.Helper()
	for i := range live {
		if live[i] != snap[i] {
			t.Errorf("%s: live %s, snapshot %s", what, live[i], snap[i])
		}
	}
}

// TestSnapshotViewsMatchLive checks that, right after Monitor.Publish,
// every snapshot-backed view renders byte for byte what the live view
// renders: NSView against SnapView, HostView against SnapHostView, and
// each cgroup's control files cut fresh against the snapshot's.
func TestSnapshotViewsMatchLive(t *testing.T) {
	f := newFixture()
	pod := f.hier.Create("pod")
	kid := f.hier.CreateChild(pod, "pod-a")
	kid.SetMemLimits(0, units.GiB)
	f.mem.Charge(kid.Mem, 128*units.MiB, 0)
	unlimited := f.hier.Create("unlimited")
	over := f.hier.Create("over")
	over.SetQuota(250_000, 100_000)
	over.SetCpuset(3)
	over.SetShares(512)
	over.SetMemLimits(2*units.GiB, units.GiB)
	var nss []*sysns.SysNamespace
	for _, cg := range []*cgroups.Cgroup{kid, unlimited, over} {
		nss = append(nss, f.mon.Attach(cg))
	}
	// Busy tasks give usage, throttling and load average non-zero values.
	for i := 0; i < 4; i++ {
		f.sched.SetRunnable(f.sched.NewTask(over.CPU, "t"), true)
		f.sched.SetRunnable(f.sched.NewTask(unlimited.CPU, "u"), true)
	}
	for now := time.Duration(0); now < 300*time.Millisecond; {
		now += time.Millisecond
		f.sched.Tick(now, time.Millisecond)
	}
	// Resident memory above E_MEM: free memory clamps to zero.
	f.mem.Charge(over.Mem, 1200*units.MiB, 0)

	snap := f.mon.Publish(0)
	if over.Mem.Resident() <= nss[2].EffectiveMemory() {
		t.Fatal("fixture: over's resident memory does not exceed E_MEM")
	}
	if f.sched.LoadAvg() == 0 || over.CPU.ThrottledTime() == 0 || pod.Mem.SubtreeResident() == 0 {
		t.Fatal("fixture: zero load average, throttled time or pod subtree usage")
	}

	sameLines(t, "host", probe(f.host), probe(SnapHostView{H: &snap.Host}))
	for _, ns := range nss {
		name := ns.Cgroup().Name
		sameLines(t, name, probe(f.res.For(ns)), probe(SnapView{C: snap.Container(name), Host: &snap.Host}))
	}
	for _, cg := range f.hier.Cgroups() {
		for _, file := range cgroupFiles {
			live, lerr := readCgroup(cg, file)
			frozen, ferr := ReadCgroupView(snap.Cgroup(cg.Name), file)
			if live != frozen || fmt.Sprint(lerr) != fmt.Sprint(ferr) {
				t.Errorf("%s/%s: live %q, %v; snapshot %q, %v", cg.Name, file, live, lerr, frozen, ferr)
			}
		}
	}
}
