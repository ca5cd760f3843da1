package integration

import (
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/jvm"
	"arv/internal/units"
	"arv/internal/workloads"
)

// TestPodBoundsAndAllocation: two containers inside a pod split the
// pod's guaranteed share; their sys_namespaces account for both levels.
func TestPodBoundsAndAllocation(t *testing.T) {
	h := newHost(t, 16, 64*units.GiB)
	pod := h.Runtime.CreatePod(container.PodSpec{Name: "pod"})
	a := h.Runtime.CreateInPod(pod, container.Spec{Name: "a"})
	a.Exec("app")
	b := h.Runtime.CreateInPod(pod, container.Spec{Name: "b"})
	b.Exec("app")
	other := h.Runtime.Create(container.Spec{Name: "other"})
	other.Exec("app")

	// Top level: pod vs other, equal shares -> 8 CPUs each guaranteed;
	// within the pod: a and b -> 4 each.
	if lower, _ := a.NS.CPUBounds(); lower != 4 {
		t.Fatalf("pod member lower bound = %d, want 4", lower)
	}
	if lower, _ := other.NS.CPUBounds(); lower != 8 {
		t.Fatalf("flat container lower bound = %d, want 8", lower)
	}
	if n := len(pod.Cgroup.Children()); n != 2 {
		t.Fatalf("pod members = %d", n)
	}

	// Saturate everything: allocation must match the guarantees.
	workloads.NewSysbench(h, a, 16, 1e9).Start()
	workloads.NewSysbench(h, b, 16, 1e9).Start()
	workloads.NewSysbench(h, other, 16, 1e9).Start()
	h.Run(2 * time.Second)
	if rate := a.Cgroup.CPU.LastRate(); rate < 3.9 || rate > 4.1 {
		t.Fatalf("pod member rate = %v, want 4", rate)
	}
	if rate := other.Cgroup.CPU.LastRate(); rate < 7.9 || rate > 8.1 {
		t.Fatalf("flat container rate = %v, want 8", rate)
	}
}

// TestPodQuotaBoundsMembers: a pod-level quota caps each member's upper
// bound and the subtree allocation.
func TestPodQuotaBoundsMembers(t *testing.T) {
	h := newHost(t, 16, 64*units.GiB)
	pod := h.Runtime.CreatePod(container.PodSpec{
		Name: "pod", CPUQuotaUS: 600_000, CPUPeriodUS: 100_000, // 6 CPUs
	})
	a := h.Runtime.CreateInPod(pod, container.Spec{Name: "a"})
	a.Exec("app")
	b := h.Runtime.CreateInPod(pod, container.Spec{Name: "b"})
	b.Exec("app")

	if _, upper := a.NS.CPUBounds(); upper != 6 {
		t.Fatalf("member upper bound = %d, want pod quota 6", upper)
	}
	workloads.NewSysbench(h, a, 8, 1e9).Start()
	workloads.NewSysbench(h, b, 8, 1e9).Start()
	h.Run(2 * time.Second)
	sum := a.Cgroup.CPU.LastRate() + b.Cgroup.CPU.LastRate()
	if sum < 5.9 || sum > 6.1 {
		t.Fatalf("subtree rate = %v, want 6", sum)
	}
	// Effective CPU must converge within the pod's quota.
	if e := a.NS.EffectiveCPU(); e > 6 {
		t.Fatalf("E_CPU = %d exceeds the pod quota", e)
	}
}

// TestPodMemoryLimitSharedByMembers: the pod's hard limit caps the
// members' aggregate resident memory.
func TestPodMemoryLimitSharedByMembers(t *testing.T) {
	h := newHost(t, 8, 32*units.GiB)
	pod := h.Runtime.CreatePod(container.PodSpec{Name: "pod", MemHard: 2 * units.GiB})
	a := h.Runtime.CreateInPod(pod, container.Spec{Name: "a"})
	a.Exec("app")
	b := h.Runtime.CreateInPod(pod, container.Spec{Name: "b"})
	b.Exec("app")

	if _, ok := h.Mem.Charge(a.Cgroup.Mem, 1500*units.MiB, h.Now()); !ok {
		t.Fatal("first member charge failed")
	}
	stall, ok := h.Mem.Charge(b.Cgroup.Mem, 1500*units.MiB, h.Now())
	if !ok {
		t.Fatal("second member charge failed outright")
	}
	if stall == 0 {
		t.Fatal("exceeding the pod limit should swap (stall)")
	}
	if got := pod.Cgroup.Mem.SubtreeResident(); got > 2*units.GiB {
		t.Fatalf("subtree resident = %v exceeds pod hard limit", got)
	}
	if a.Cgroup.Mem.Swapped()+b.Cgroup.Mem.Swapped() == 0 {
		t.Fatal("no member was reclaimed")
	}
}

// TestPodJVMsShareEffectiveView: two adaptive JVMs inside a 6-CPU-quota
// pod size their GC pools from the pod-aware effective CPU.
func TestPodJVMsShareEffectiveView(t *testing.T) {
	h := newHost(t, 16, 64*units.GiB)
	pod := h.Runtime.CreatePod(container.PodSpec{
		Name: "pod", CPUQuotaUS: 600_000, CPUPeriodUS: 100_000,
	})
	var jvms []*jvm.JVM
	for _, name := range []string{"a", "b"} {
		ctr := h.Runtime.CreateInPod(pod, container.Spec{Name: name, Gamma: 0.5})
		ctr.Exec("java")
		w := workloads.DaCapo("sunflow")
		w.TotalWork = 6
		j := jvm.New(h, ctr, w, jvm.Config{Policy: jvm.Adaptive, Xmx: 3 * w.MinHeap})
		j.Start()
		jvms = append(jvms, j)
	}
	if !h.RunUntilDone(time.Hour) {
		t.Fatal("pod JVMs did not finish")
	}
	for _, j := range jvms {
		if j.Failed() {
			t.Fatalf("%s failed: %v", j.Name, j.FailReason())
		}
		for _, rec := range j.Stats.GCs {
			if rec.Threads > 6 {
				t.Fatalf("GC used %d threads inside a 6-CPU pod", rec.Threads)
			}
		}
	}
}
