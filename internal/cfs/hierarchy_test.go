package cfs

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// quickCheck runs a property with a bounded iteration count.
func quickCheck(f func(uint16) bool, n int) error {
	return quick.Check(f, &quick.Config{MaxCount: n})
}

func TestNestedGroupsShareParentGrant(t *testing.T) {
	s := NewScheduler(8)
	pod := s.NewGroup("pod")
	a := s.NewChildGroup(pod, "a")
	b := s.NewChildGroup(pod, "b")
	other := newBusyGroup(s, "other", 8)
	for i := 0; i < 4; i++ {
		s.SetRunnable(s.NewTask(a, "a"), true)
		s.SetRunnable(s.NewTask(b, "b"), true)
	}
	_ = other
	run(s, time.Second)
	// Top level: pod vs other, equal shares -> 4 CPUs each. Within the
	// pod: a and b split 4 -> 2 each.
	if got := float64(pod.Usage()); math.Abs(got-4.0) > 1e-6 {
		t.Fatalf("pod usage = %v, want 4", got)
	}
	if got := float64(a.Usage()); math.Abs(got-2.0) > 1e-6 {
		t.Fatalf("child a usage = %v, want 2", got)
	}
	if got := float64(b.Usage()); math.Abs(got-2.0) > 1e-6 {
		t.Fatalf("child b usage = %v, want 2", got)
	}
}

func TestNestedWeightsWithinPod(t *testing.T) {
	s := NewScheduler(8)
	pod := s.NewGroup("pod")
	a := s.NewChildGroup(pod, "a")
	b := s.NewChildGroup(pod, "b")
	a.Shares = 3 * 1024
	for i := 0; i < 8; i++ {
		s.SetRunnable(s.NewTask(a, "a"), true)
		s.SetRunnable(s.NewTask(b, "b"), true)
	}
	run(s, time.Second)
	// The pod gets all 8; a:b = 3:1 -> 6 and 2.
	if got := float64(a.Usage()); math.Abs(got-6.0) > 1e-6 {
		t.Fatalf("a usage = %v, want 6", got)
	}
	if got := float64(b.Usage()); math.Abs(got-2.0) > 1e-6 {
		t.Fatalf("b usage = %v, want 2", got)
	}
}

func TestPodQuotaCapsSubtree(t *testing.T) {
	s := NewScheduler(8)
	pod := s.NewGroup("pod")
	pod.QuotaUS, pod.PeriodUS = 300_000, 100_000 // 3 CPUs for the subtree
	a := s.NewChildGroup(pod, "a")
	b := s.NewChildGroup(pod, "b")
	for i := 0; i < 4; i++ {
		s.SetRunnable(s.NewTask(a, "a"), true)
		s.SetRunnable(s.NewTask(b, "b"), true)
	}
	run(s, time.Second)
	if got := float64(a.Usage() + b.Usage()); math.Abs(got-3.0) > 1e-6 {
		t.Fatalf("subtree usage = %v, want pod quota 3", got)
	}
	if pod.ThrottledTime() == 0 {
		t.Fatal("pod quota should register as throttled")
	}
}

func TestChildQuotaWithinPod(t *testing.T) {
	s := NewScheduler(8)
	pod := s.NewGroup("pod")
	a := s.NewChildGroup(pod, "a")
	a.QuotaUS, a.PeriodUS = 100_000, 100_000 // child capped at 1 CPU
	b := s.NewChildGroup(pod, "b")
	for i := 0; i < 4; i++ {
		s.SetRunnable(s.NewTask(a, "a"), true)
		s.SetRunnable(s.NewTask(b, "b"), true)
	}
	run(s, time.Second)
	if got := float64(a.Usage()); math.Abs(got-1.0) > 1e-6 {
		t.Fatalf("capped child usage = %v, want 1", got)
	}
	// Work conservation inside the pod: b absorbs the rest.
	if got := float64(b.Usage()); math.Abs(got-4.0) > 1e-6 {
		t.Fatalf("sibling usage = %v, want 4 (task-limited)", got)
	}
}

func TestPodThrottlingSuppressesChildLoad(t *testing.T) {
	s := NewScheduler(20)
	pod := s.NewGroup("pod")
	pod.QuotaUS, pod.PeriodUS = 400_000, 100_000 // 4 CPUs
	a := s.NewChildGroup(pod, "a")
	for i := 0; i < 20; i++ {
		s.SetRunnable(s.NewTask(a, "a"), true)
	}
	run(s, 8*time.Second) // eight load-average time constants
	if la := s.LoadAvg(); math.Abs(la-4.0) > 0.2 {
		t.Fatalf("loadavg = %v, want ~4 under a pod-level throttle", la)
	}
}

func TestNoInternalProcessesRule(t *testing.T) {
	s := NewScheduler(4)
	pod := s.NewGroup("pod")
	s.NewChildGroup(pod, "a")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewTask on a parent group must panic")
			}
		}()
		s.NewTask(pod, "t")
	}()

	leaf := s.NewGroup("leaf")
	s.NewTask(leaf, "t")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewChildGroup under a task-holding group must panic")
			}
		}()
		s.NewChildGroup(leaf, "x")
	}()
}

func TestNoDeepNesting(t *testing.T) {
	s := NewScheduler(4)
	pod := s.NewGroup("pod")
	child := s.NewChildGroup(pod, "a")
	defer func() {
		if recover() == nil {
			t.Fatal("two-level nesting must panic")
		}
	}()
	s.NewChildGroup(child, "grandchild")
}

func TestRemoveParentRemovesChildren(t *testing.T) {
	s := NewScheduler(4)
	pod := s.NewGroup("pod")
	a := s.NewChildGroup(pod, "a")
	s.SetRunnable(s.NewTask(a, "t"), true)
	other := newBusyGroup(s, "other", 4)
	s.RemoveGroup(pod)
	if len(s.Groups()) != 1 || s.Groups()[0] != other {
		t.Fatalf("groups after removal: %d", len(s.Groups()))
	}
	run(s, 100*time.Millisecond) // must not panic; indices consistent
	if math.Abs(float64(other.Usage())-0.4) > 1e-6 {
		t.Fatalf("survivor usage = %v", other.Usage())
	}
}

// TestNestedConservationProperty: with random pod/flat topologies and
// caps, total allocation never exceeds NCPU, each pod's children never
// exceed the pod's grant, and capacity is work-conserved.
func TestNestedConservationProperty(t *testing.T) {
	f := func(seed uint16) bool {
		ncpu := int(seed%12) + 4
		s := NewScheduler(ncpu)
		var leaves []*Group
		var pods []*Group
		npods := int(seed % 3)
		for i := 0; i < npods; i++ {
			pod := s.NewGroup("pod")
			pod.Shares = int64(512 * (int(seed%5) + 1))
			if i%2 == 0 {
				pod.QuotaUS = int64(100_000 * (int(seed%4) + 1))
				pod.PeriodUS = 100_000
			}
			nchild := int(seed)%2 + 1
			for c := 0; c < nchild; c++ {
				child := s.NewChildGroup(pod, "c")
				ntasks := int(seed*7)%5 + 1
				for k := 0; k < ntasks; k++ {
					s.SetRunnable(s.NewTask(child, "t"), true)
				}
				leaves = append(leaves, child)
			}
			pods = append(pods, pod)
		}
		nflat := int(seed%2) + 1
		for i := 0; i < nflat; i++ {
			g := newBusyGroup(s, "flat", int(seed*3)%6+1)
			leaves = append(leaves, g)
		}
		s.Tick(tick, tick)

		var total float64
		for _, g := range leaves {
			total += g.LastRate()
			// A leaf never exceeds its own caps.
			capG := float64(g.RunnableTasks())
			if lim := g.CPULimit(); lim < capG {
				capG = lim
			}
			if g.LastRate() > capG+1e-9 {
				return false
			}
		}
		if total > float64(ncpu)+1e-9 {
			return false
		}
		for _, pod := range pods {
			var sub float64
			for _, c := range pod.Children() {
				sub += c.LastRate()
			}
			if sub > pod.LastRate()+1e-9 {
				return false
			}
			if lim := pod.CPULimit(); sub > lim+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quickCheck(f, 300); err != nil {
		t.Error(err)
	}
}

func TestParentAccessors(t *testing.T) {
	s := NewScheduler(4)
	pod := s.NewGroup("pod")
	a := s.NewChildGroup(pod, "a")
	if a.parent != pod {
		t.Fatal("parent link broken")
	}
	if len(pod.Children()) != 1 || pod.Children()[0] != a {
		t.Fatal("Children() broken")
	}
}
