package container

import (
	"fmt"
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

func newRuntime() (*Runtime, *cgroups.Hierarchy) {
	sched := cfs.NewScheduler(20)
	mem := memctl.New(memctl.Config{Total: 128 * units.GiB})
	hier := cgroups.NewHierarchy(sched, mem)
	mon := sysns.NewMonitor(hier, sim.NewClock(time.Millisecond), sysns.Options{})
	res := sysfs.NewResolver(&sysfs.HostView{Sched: sched, Mem: mem})
	return NewRuntime(hier, mon, res), hier
}

func TestCreateAppliesSpec(t *testing.T) {
	rt, hier := newRuntime()
	c := rt.Create(Spec{
		Name:       "web",
		CPUShares:  2048,
		CPUQuotaUS: 400_000, CPUPeriodUS: 100_000,
		CpusetCPUs: 8,
		MemHard:    4 * units.GiB,
		MemSoft:    2 * units.GiB,
		Gamma:      0.4,
	})
	cg := hier.Lookup("web")
	if cg != c.Cgroup {
		t.Fatal("cgroup not registered")
	}
	if cg.CPU.Shares != 2048 || cg.CPU.CPULimit() != 4 || cg.CPU.CpusetN != 8 {
		t.Fatal("cpu settings not applied")
	}
	if cg.Mem.HardLimit != 4*units.GiB || cg.Mem.SoftLimit != 2*units.GiB {
		t.Fatal("memory limits not applied")
	}
	if cg.CPU.Gamma != 0.4 {
		t.Fatal("gamma not applied")
	}
	if c.NS == nil {
		t.Fatal("sys_namespace not attached")
	}
	if c.State() != Created {
		t.Fatalf("state = %v", c.State())
	}
}

func TestDefaultPeriodApplied(t *testing.T) {
	rt, _ := newRuntime()
	c := rt.Create(Spec{Name: "a", CPUQuotaUS: 200_000})
	if lim := c.Cgroup.CPU.CPULimit(); lim != 2 {
		t.Fatalf("limit = %v with default 100ms period, want 2", lim)
	}
}

// TestInitOwnershipTransfer verifies the §3.2 mechanism: the bootstrap
// init owns the namespaces; exec replaces it, the original init reaches
// TASK_DEAD, and ownership transfers to the new init so the kernel can
// keep updating the namespace for the container's lifetime.
func TestInitOwnershipTransfer(t *testing.T) {
	rt, _ := newRuntime()
	c := rt.Create(Spec{Name: "a"})
	boot := c.NS.OwnerPID
	if boot == 0 || c.Command() != "app" {
		t.Fatalf("bootstrap init: owner PID %d, command %q; want a PID and \"app\"", boot, c.Command())
	}
	c.Exec("java -jar app.jar")
	if c.Command() != "java -jar app.jar" {
		t.Fatalf("command = %q after exec", c.Command())
	}
	if c.NS.OwnerPID == boot {
		t.Fatal("namespace ownership not transferred to the new init")
	}
	if c.State() != Running {
		t.Fatalf("state = %v, want running", c.State())
	}
}

func TestHostPIDsGloballyUnique(t *testing.T) {
	rt, _ := newRuntime()
	a := rt.Create(Spec{Name: "a"})
	b := rt.Create(Spec{Name: "b"})
	a.Exec("x")
	b.Exec("y")
	if a.NS.OwnerPID == b.NS.OwnerPID {
		t.Fatal("host PID collision across containers")
	}
}

func TestViewIsVirtual(t *testing.T) {
	rt, _ := newRuntime()
	c := rt.Create(Spec{Name: "a", CpusetCPUs: 2})
	c.Exec("app")
	if got := c.View().OnlineCPUs(); got != c.NS.EffectiveCPU() {
		t.Fatalf("view online CPUs = %d, want %d", got, c.NS.EffectiveCPU())
	}
}

func TestDestroy(t *testing.T) {
	rt, hier := newRuntime()
	c := rt.Create(Spec{Name: "a"})
	c.Exec("app")
	rt.Destroy(c)
	if c.State() != Stopped {
		t.Fatalf("state = %v", c.State())
	}
	if hier.Lookup("a") != nil {
		t.Fatal("cgroup survived destroy")
	}
	if len(rt.Containers()) != 0 {
		t.Fatal("destroyed container still listed")
	}
	rt.Destroy(c) // idempotent
}

// The runtime forgets destroyed containers: after 1 000 create/destroy
// cycles interleaved with the creation of 8 long-lived containers, it
// holds exactly the 8, and Containers lists them in creation order.
func TestRuntimeForgetsDestroyed(t *testing.T) {
	rt, _ := newRuntime()
	var live []*Container
	for i := 0; i < 1000; i++ {
		if i%125 == 0 {
			live = append(live, rt.Create(Spec{Name: fmt.Sprintf("live%d", len(live))}))
		}
		c := rt.Create(Spec{Name: fmt.Sprintf("tmp%d", i)})
		c.Exec("app")
		rt.Destroy(c)
		if len(rt.containers) != len(live) {
			t.Fatalf("cycle %d: runtime holds %d containers, want the %d live ones", i, len(rt.containers), len(live))
		}
	}
	got := rt.Containers()
	if len(got) != 8 {
		t.Fatalf("Containers lists %d, want 8", len(got))
	}
	for i, c := range got {
		if c != live[i] {
			t.Fatalf("Containers[%d] = %s, want %s", i, c.Name, live[i].Name)
		}
	}
	// Destroying from the middle keeps the survivors' order.
	rt.Destroy(live[3])
	live = append(live[:3], live[4:]...)
	got = rt.Containers()
	for i, c := range got {
		if c != live[i] {
			t.Fatalf("after destroying live3: Containers[%d] = %s, want %s", i, c.Name, live[i].Name)
		}
	}
	if len(got) != len(live) {
		t.Fatalf("after destroying live3: Containers lists %d, want %d", len(got), len(live))
	}
}

func TestStoppedContainerRejectsWork(t *testing.T) {
	rt, _ := newRuntime()
	c := rt.Create(Spec{Name: "a"})
	rt.Destroy(c)
	defer func() {
		if recover() == nil {
			t.Error("exec on stopped container must panic")
		}
	}()
	c.Exec("x")
}

func TestEmptyNamePanics(t *testing.T) {
	rt, _ := newRuntime()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt.Create(Spec{})
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Created: "created", Running: "running", Stopped: "stopped",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}
