package memctl

import (
	"testing"

	"arv/internal/units"
)

func TestSubtreeAccounting(t *testing.T) {
	c := newCtl(16 * units.GiB)
	pod := c.NewGroup("pod")
	a := c.NewChildGroup(pod, "a")
	b := c.NewChildGroup(pod, "b")
	if a.parent != pod {
		t.Fatal("parent link broken")
	}
	c.Charge(a, units.GiB, 0)
	c.Charge(b, 512*units.MiB, 0)
	if got := pod.SubtreeResident(); got != units.GiB+512*units.MiB {
		t.Fatalf("subtree = %v", got)
	}
	c.Uncharge(a, 256*units.MiB)
	if got := pod.SubtreeResident(); got != 768*units.MiB+512*units.MiB {
		t.Fatalf("subtree after uncharge = %v", got)
	}
}

func TestParentHardLimitCapsSubtree(t *testing.T) {
	c := newCtl(16 * units.GiB)
	pod := c.NewGroup("pod")
	pod.HardLimit = units.GiB
	a := c.NewChildGroup(pod, "a")
	b := c.NewChildGroup(pod, "b")
	c.Charge(a, 700*units.MiB, 0)
	stall, ok := c.Charge(b, 700*units.MiB, 0)
	if !ok {
		t.Fatal("charge should succeed via reclaim")
	}
	if stall == 0 {
		t.Fatal("crossing the pod limit must swap")
	}
	if pod.SubtreeResident() > units.GiB {
		t.Fatalf("subtree %v over the pod hard limit", pod.SubtreeResident())
	}
	// The charging child paid the reclaim.
	if b.Swapped() == 0 {
		t.Fatal("charging child was not reclaimed")
	}
}

func TestParentSoftLimitGuidesKswapd(t *testing.T) {
	c := newCtl(4 * units.GiB)
	pod := c.NewGroup("pod")
	pod.SoftLimit = 512 * units.MiB
	a := c.NewChildGroup(pod, "a")
	b := c.NewChildGroup(pod, "b")
	c.Charge(a, 1200*units.MiB, 0)
	c.Charge(b, 300*units.MiB, 0)

	hog := c.NewGroup("hog")
	c.Charge(hog, c.Free()-c.LowWM+10*units.MiB, 0)
	if c.KswapdRuns() == 0 {
		t.Fatal("kswapd did not run")
	}
	// The over-soft pod's largest member absorbs the reclaim.
	if a.Swapped() == 0 {
		t.Fatal("largest member of the over-soft pod was not reclaimed")
	}
	if hog.Swapped() != 0 {
		t.Fatal("non-over-soft group was reclaimed by kswapd")
	}
}

func TestRemoveParentGroupFreesSubtree(t *testing.T) {
	c := newCtl(8 * units.GiB)
	pod := c.NewGroup("pod")
	a := c.NewChildGroup(pod, "a")
	a.HardLimit = 512 * units.MiB
	c.Charge(a, units.GiB, 0) // half swaps
	c.RemoveGroup(pod)
	if c.Free() != 8*units.GiB {
		t.Fatalf("free = %v after removing the pod", c.Free())
	}
	if c.Swap().Used() != 0 {
		t.Fatalf("swap used = %v after removal", c.Swap().Used())
	}
	if len(c.groups) != 0 {
		t.Fatal("groups not removed")
	}
}

func TestDeepNestingPanics(t *testing.T) {
	c := newCtl(units.GiB)
	pod := c.NewGroup("pod")
	child := c.NewChildGroup(pod, "a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on two-level nesting")
		}
	}()
	c.NewChildGroup(child, "grandchild")
}

func TestRemoveGroupKeepsChildCount(t *testing.T) {
	c := newCtl(8 * units.GiB)
	pod := c.NewGroup("pod")
	a := c.NewChildGroup(pod, "a")
	b := c.NewChildGroup(pod, "b")
	other := c.NewGroup("other")
	if pod.children != 2 {
		t.Fatalf("pod counts %d children, want 2", pod.children)
	}
	c.RemoveGroup(a)
	if pod.children != 1 {
		t.Fatalf("pod counts %d children after removing one, want 1", pod.children)
	}
	c.RemoveGroup(pod) // still finds b
	if len(c.groups) != 1 || c.groups[0] != other {
		t.Fatalf("groups after removing the pod = %v, want only other", c.groups)
	}
	if b.Resident() != 0 || pod.children != 0 {
		t.Fatalf("child b not released: resident %v, pod children %d", b.Resident(), pod.children)
	}
}

func TestRemoveChildlessGroupDoesNotAllocate(t *testing.T) {
	const runs = 100
	c := newCtl(8 * units.GiB)
	pod := c.NewGroup("pod")
	var gs []*Group
	for i := 0; i < runs+1; i++ {
		gs = append(gs, c.NewGroup("g"), c.NewChildGroup(pod, "m"))
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		c.RemoveGroup(gs[i])   // a top-level leaf
		c.RemoveGroup(gs[i+1]) // a pod member
		i += 2
	})
	if allocs != 0 {
		t.Fatalf("removing a childless group allocates %v times", allocs)
	}
}
