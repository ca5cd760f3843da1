package sysfs

import (
	"strings"
	"testing"

	"arv/internal/cgroups"
	"arv/internal/sysns"
	"arv/internal/units"
)

// cgroupFiles lists the control files ReadCgroupView serves.
var cgroupFiles = []string{
	"cpu.shares", "cpu.cfs_quota_us", "cpu.cfs_period_us", "cpu.stat",
	"cpuacct.usage", "cpuset.cpus",
	"memory.limit_in_bytes", "memory.soft_limit_in_bytes",
	"memory.usage_in_bytes", "memory.stat", "cgroup.procs",
}

// readCgroup renders a control file of a live cgroup the way a snapshot
// does: cut a frozen view, then render it.
func readCgroup(cg *cgroups.Cgroup, file string) (string, error) {
	var gv sysns.CgroupView
	gv.Cut(cg)
	return ReadCgroupView(&gv, file)
}

func TestCgroupFileCPU(t *testing.T) {
	f := newFixture()
	cg := f.hier.Create("a")
	cg.SetShares(2048)
	cg.SetQuota(400_000, 100_000)
	cg.SetCpuset(4)

	cases := map[string]string{
		"cpu.shares":        "2048\n",
		"cpu.cfs_quota_us":  "400000\n",
		"cpu.cfs_period_us": "100000\n",
		"cpuset.cpus":       "0-3\n",
	}
	for file, want := range cases {
		got, err := readCgroup(cg, file)
		if err != nil || got != want {
			t.Errorf("%s = %q, %v; want %q", file, got, err, want)
		}
	}
}

func TestCgroupFileCPUUnrestricted(t *testing.T) {
	f := newFixture()
	cg := f.hier.Create("a")
	if got, _ := readCgroup(cg, "cpu.cfs_quota_us"); got != "-1\n" {
		t.Errorf("unlimited quota = %q, want -1", got)
	}
	if got, _ := readCgroup(cg, "cpuset.cpus"); got != "" {
		t.Errorf("unrestricted cpuset = %q, want empty", got)
	}
	cg.SetCpuset(1)
	if got, _ := readCgroup(cg, "cpuset.cpus"); got != "0\n" {
		t.Errorf("single-cpu cpuset = %q", got)
	}
}

func TestCgroupFileMemory(t *testing.T) {
	f := newFixture()
	cg := f.hier.Create("a")
	cg.SetMemLimits(units.GiB, 512*units.MiB)
	f.mem.Charge(cg.Mem, 256*units.MiB, 0)

	if got, _ := readCgroup(cg, "memory.limit_in_bytes"); got != "1073741824\n" {
		t.Errorf("limit = %q", got)
	}
	if got, _ := readCgroup(cg, "memory.soft_limit_in_bytes"); got != "536870912\n" {
		t.Errorf("soft = %q", got)
	}
	if got, _ := readCgroup(cg, "memory.usage_in_bytes"); got != "268435456\n" {
		t.Errorf("usage = %q", got)
	}
	stat, _ := readCgroup(cg, "memory.stat")
	if !strings.Contains(stat, "rss 268435456") || !strings.Contains(stat, "swap 0") {
		t.Errorf("memory.stat = %q", stat)
	}
}

func TestCgroupFileMemoryUnlimited(t *testing.T) {
	f := newFixture()
	cg := f.hier.Create("a")
	got, _ := readCgroup(cg, "memory.limit_in_bytes")
	if !strings.HasPrefix(got, "92233720368") { // MaxInt64-ish
		t.Errorf("unlimited limit = %q", got)
	}
}

func TestCgroupFileHierarchicalStat(t *testing.T) {
	f := newFixture()
	pod := f.hier.Create("pod")
	a := f.hier.CreateChild(pod, "a")
	f.mem.Charge(a.Mem, 128*units.MiB, 0)
	stat, _ := readCgroup(pod, "memory.stat")
	if !strings.Contains(stat, "hierarchical_rss 134217728") {
		t.Errorf("pod memory.stat missing subtree usage: %q", stat)
	}
}

func TestCgroupFileUnknown(t *testing.T) {
	f := newFixture()
	cg := f.hier.Create("a")
	if _, err := readCgroup(cg, "nope"); err == nil {
		t.Fatal("unknown control file should error")
	}
}

func TestCgroupFilesAllServed(t *testing.T) {
	f := newFixture()
	cg := f.hier.Create("a")
	for _, file := range cgroupFiles {
		if _, err := readCgroup(cg, file); err != nil {
			t.Errorf("%s: %v", file, err)
		}
	}
}
