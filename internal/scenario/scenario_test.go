package scenario

import (
	"strings"
	"testing"

	"arv/internal/container"
	"arv/internal/units"
)

func run(t *testing.T, script string) (*Interp, *strings.Builder) {
	t.Helper()
	var out strings.Builder
	in := New(&out)
	if err := in.Run(strings.NewReader(script)); err != nil {
		t.Fatalf("script failed: %v\noutput so far:\n%s", err, out.String())
	}
	return in, &out
}

func TestHostCommand(t *testing.T) {
	in, _ := run(t, "host 8 32GiB")
	if in.Host().Sched.NCPU() != 8 || in.Host().Mem.Total() != 32*units.GiB {
		t.Fatal("host command not applied")
	}
}

func TestDefaultHost(t *testing.T) {
	in, _ := run(t, "create a")
	if in.Host().Sched.NCPU() != 20 {
		t.Fatal("default host not 20 CPUs")
	}
}

func TestCreateOptions(t *testing.T) {
	in, _ := run(t, "create a shares=2048 quota=2.5 cpuset=4 hard=1GiB soft=512MiB gamma=0.4")
	c, err := in.Container("a")
	if err != nil {
		t.Fatal(err)
	}
	if c.Spec.CPUShares != 2048 || c.Cgroup.CPU.CPULimit() != 2.5 ||
		c.Cgroup.CPU.CpusetN != 4 || c.Cgroup.Mem.HardLimit != units.GiB ||
		c.Cgroup.Mem.SoftLimit != 512*units.MiB || c.Cgroup.CPU.Gamma != 0.4 {
		t.Fatalf("spec not applied: %+v", c.Spec)
	}
}

func TestFullScenario(t *testing.T) {
	in, out := run(t, `
host 8 16GiB
create a quota=2
exec a app
create b
exec b app        # comment after command
sysbench a 4 10
sysbench b 4 10
advance 1s
top
wait 60s
`)
	// Each sysbench ran its 10 CPU-seconds in its own container, and
	// RunUntilDone with no time left reports that every registered
	// program has finished.
	for _, name := range []string{"a", "b"} {
		c, err := in.Container(name)
		if err != nil {
			t.Fatal(err)
		}
		if u := c.Cgroup.CPU.Usage(); u < 10 {
			t.Fatalf("sysbench in %s ran %v CPU-s, want 10", name, u)
		}
	}
	if !in.Host().RunUntilDone(0) {
		t.Fatal("wait did not run programs to completion")
	}
	s := out.String()
	if !strings.Contains(s, "container") || !strings.Contains(s, "E_CPU") {
		t.Fatalf("top output malformed:\n%s", s)
	}
}

func TestJVMAndOMPLaunch(t *testing.T) {
	in, _ := run(t, `
host 8 16GiB
create j gamma=0.5
exec j java
jvm j lusearch adaptive xmx=200MiB xms=64MiB elastic
create o
exec o npb
omp o ep adaptive
wait 20m
`)
	if !in.Host().RunUntilDone(0) {
		t.Fatal("a program did not finish")
	}
}

func TestMemhogAndDestroy(t *testing.T) {
	in, _ := run(t, `
host 8 16GiB
create hog
exec hog memhog
memhog hog 2GiB 8GiB
advance 2s
destroy hog
`)
	if _, err := in.Container("hog"); err == nil {
		t.Fatal("destroyed container still resolvable")
	}
	if in.Host().Mem.Free() != 16*units.GiB {
		t.Fatalf("memory not freed: %v", in.Host().Mem.Free())
	}
}

func TestPodCommands(t *testing.T) {
	in, _ := run(t, `
host 16 32GiB
pod p quota=6 hard=4GiB
create a pod=p shares=3072
exec a app
create b pod=p
exec b app
create flat
exec flat app
`)
	a, err := in.Container("a")
	if err != nil {
		t.Fatal(err)
	}
	if a.Cgroup.Parent == nil || a.Cgroup.Parent.Name != "p" {
		t.Fatal("container not nested in the pod")
	}
	if _, upper := a.NS.CPUBounds(); upper != 6 {
		t.Fatalf("pod quota not reflected: upper = %d", upper)
	}
}

func TestPodErrors(t *testing.T) {
	for name, script := range map[string]string{
		"dup pod":     "pod p\npod p",
		"unknown pod": "create a pod=nope",
		"bad pod opt": "pod p frob=1",
	} {
		in := New(nil)
		if err := in.Run(strings.NewReader(script)); err == nil {
			t.Errorf("%s: %q should fail", name, script)
		}
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	in := New(nil)
	err := in.Run(strings.NewReader("create a\nbogus cmd\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error = %v, want line 2 annotation", err)
	}
}

func TestCommandErrors(t *testing.T) {
	cases := map[string]string{
		"unknown command":     "frob a b",
		"bad host":            "host x 1GiB",
		"dup container":       "create a\ncreate a",
		"unknown container":   "exec nope app",
		"bad option":          "create a nope=1",
		"bad option value":    "create a quota=x",
		"bad workload":        "create a\nexec a x\njvm a nope adaptive",
		"bad policy":          "create a\nexec a x\njvm a h2 nope",
		"bad jvm option":      "create a\nexec a x\njvm a h2 adaptive foo=1",
		"bad strategy":        "create a\nexec a x\nomp a cg nope",
		"bad kernel":          "create a\nexec a x\nomp a nope static",
		"bad duration":        "advance soon",
		"host twice":          "host 4 1GiB\nhost 4 1GiB",
		"create no name":      "create",
		"sysbench bad thread": "create a\nsysbench a x 1",
	}
	for name, script := range cases {
		in := New(nil)
		if err := in.Run(strings.NewReader(script)); err == nil {
			t.Errorf("%s: script %q should fail", name, script)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]units.Bytes{
		"1":      1,
		"512":    512,
		"1KiB":   units.KiB,
		"2K":     2 * units.KiB,
		"100MB":  100 * units.MiB,
		"1.5GiB": 3 * units.GiB / 2,
		"4G":     4 * units.GiB,
	}
	for s, want := range cases {
		got, err := ParseSize(s)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "-1", "GiB"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) should fail", bad)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"vanilla", "dynamic", "jvm9", "jvm10", "adaptive"} {
		if _, err := ParsePolicy(name); err != nil {
			t.Errorf("ParsePolicy(%q): %v", name, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestFaultCommands(t *testing.T) {
	in, _ := run(t, `host 8 16GiB
create a quota=4
exec a app
sysbench a 2 50
fault seed 3
fault events drop=0.5 delay=10ms jitter=0.2
fault monitor lag=20ms miss=0.1
fault degrade budget=50ms resync=100ms
fault churn a interval=100ms quota=1:2 count=3
advance 2s
fault events
fault monitor
top`)
	c, err := in.Container("a")
	if err != nil {
		t.Fatal(err)
	}
	if q := c.Cgroup.CPU.QuotaUS; q < 100_000 || q > 200_000 {
		t.Fatalf("churned quota = %d, want within [100000, 200000]", q)
	}
}

func TestFaultKillRestartRebindsName(t *testing.T) {
	in, _ := run(t, `create a quota=2
exec a app
sysbench a 2 10
fault kill a at=100ms restart delay=50ms
advance 1s
sysbench a 2 1
advance 100ms`)
	c, err := in.Container("a")
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != container.Running {
		t.Fatalf("restarted container state = %v, want Running", c.State())
	}
	if c.Spec.CPUQuotaUS != 200_000 {
		t.Fatalf("restarted quota = %d, want the original 200000", c.Spec.CPUQuotaUS)
	}
}

func TestAutoscaleCommands(t *testing.T) {
	in, out := run(t, `host 8 16GiB
create svc quota=2
exec svc app
sysbench svc 6 1000000
autoscale policy target interval=100ms hysteresis=0.1 headroom=0.2
autoscale manage svc min=1 max=7
advance 3s
autoscale status`)
	c, err := in.Container("svc")
	if err != nil {
		t.Fatal(err)
	}
	if q := float64(c.Cgroup.CPU.QuotaUS) / 100_000; q <= 2 || q > 7 {
		t.Fatalf("autoscaled quota = %v CPUs, want grown within (2, 7]", q)
	}
	s := out.String()
	if !strings.Contains(s, "policy=target") || !strings.Contains(s, "rounds=") {
		t.Fatalf("status output malformed:\n%s", s)
	}
}

func TestAutoscaleStatusBeforeAttach(t *testing.T) {
	_, out := run(t, "autoscale status")
	if !strings.Contains(out.String(), "not attached") {
		t.Fatalf("status without policy: %q", out.String())
	}
}

func TestAutoscaleCommandErrors(t *testing.T) {
	cases := map[string]string{
		"no subcommand":      "autoscale",
		"unknown sub":        "autoscale frob",
		"policy no name":     "autoscale policy",
		"unknown policy":     "autoscale policy nope",
		"policy bad opt":     "autoscale policy target nope=1",
		"policy bad value":   "autoscale policy target interval=x",
		"policy no equals":   "autoscale policy target interval",
		"policy twice":       "autoscale policy target\nautoscale policy banked",
		"manage before":      "create a\nautoscale manage a",
		"manage unknown ctr": "autoscale policy target\nautoscale manage nope",
		"manage no name":     "autoscale policy target\nautoscale manage",
		"manage bad opt":     "create a\nautoscale policy target\nautoscale manage a nope=1",
		"manage bad value":   "create a\nautoscale policy target\nautoscale manage a min=x",
		"manage cpu range":   "create a\nautoscale policy target\nautoscale manage a min=4 max=2",
		"manage mem range":   "create a\nautoscale policy target\nautoscale manage a memmin=2GiB memmax=1GiB",
	}
	for name, script := range cases {
		in := New(nil)
		if err := in.Run(strings.NewReader(script)); err == nil {
			t.Errorf("%s: script %q should fail", name, script)
		}
	}
}

func TestFaultCommandErrors(t *testing.T) {
	cases := map[string]string{
		"no subcommand":     "fault",
		"unknown sub":       "fault frob",
		"bad seed":          "fault seed x",
		"seed arity":        "fault seed 1 2",
		"events bad opt":    "fault events nope=1",
		"events bad value":  "fault events drop=x",
		"events no equals":  "fault events drop",
		"monitor bad opt":   "fault monitor nope=1",
		"monitor bad value": "fault monitor lag=x",
		"degrade bad opt":   "fault degrade nope=1s",
		"churn unknown ctr": "fault churn nope interval=1s",
		"churn no interval": "create a\nfault churn a quota=1:2",
		"churn bad range":   "create a\nfault churn a interval=1s quota=2:1",
		"churn bad quota":   "create a\nfault churn a interval=1s quota=2",
		"churn bad hard":    "create a\nfault churn a interval=1s hard=1GiB",
		"churn bad opt":     "create a\nfault churn a interval=1s nope=1",
		"kill unknown ctr":  "fault kill nope at=1s",
		"kill no at":        "create a\nfault kill a",
		"kill bad opt":      "create a\nfault kill a at=1s nope=2",
	}
	for name, script := range cases {
		in := New(nil)
		if err := in.Run(strings.NewReader(script)); err == nil {
			t.Errorf("%s: script %q should fail", name, script)
		}
	}
}
