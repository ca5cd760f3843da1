package integration

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"arv/internal/autoscaler"
	"arv/internal/container"
	"arv/internal/faults"
	"arv/internal/units"
)

// TestDestroyedContainersAreCollected: nothing pins a destroyed
// container. 200 create/exec/destroy cycles run over 4 names while the
// layers that key state by name are live: a churn rule per name, an
// autoscaler managing each name, and an event ring. Every destroyed
// container and its cgroup carries a finalizer, and all 400 must run.
// One reference is bounded rather than absent: a churn rule caches its
// target cgroup (faults' churnState.cg) and drops a removed one at its
// next firing, so the host runs on for 25 ms after the last destroy
// before collecting.
func TestDestroyedContainersAreCollected(t *testing.T) {
	const cycles = 200
	names := []string{"a", "b", "c", "d"}
	h := newHost(t, 8, 32*units.GiB)
	h.EnableTelemetry(64)
	inj := faults.Attach(h, faults.Config{Seed: 9})
	auto := autoscaler.Attach(h, autoscaler.Config{Interval: 10 * time.Millisecond, Policy: autoscaler.Target{}})
	for _, name := range names {
		inj.StartChurn(faults.ChurnRule{Target: name, Interval: 7 * time.Millisecond, Jitter: 0.3,
			MinQuotaCPUs: 0.5, MaxQuotaCPUs: 4, MinMemHard: units.GiB, MaxMemHard: 2 * units.GiB})
		auto.Manage(autoscaler.Spec{Name: name})
	}

	var ctrs, cgs atomic.Int64
	for i := 0; i < cycles; i++ {
		c := h.Runtime.Create(container.Spec{Name: names[i%len(names)], CPUQuotaUS: 200_000})
		c.Exec("app")
		runtime.SetFinalizer(c, func(*container.Container) { ctrs.Add(1) })
		runtime.SetFinalizer(c.Cgroup, func(any) { cgs.Add(1) })
		h.Run(25 * time.Millisecond)
		h.Runtime.Destroy(c)
	}
	h.Run(25 * time.Millisecond)

	// A finalizer runs one GC cycle after its object is found
	// unreachable, and a cgroup only becomes unreachable once the
	// container pointing at it has been freed: collect until both
	// counts settle.
	for try := 0; try < 100 && (ctrs.Load() < cycles || cgs.Load() < cycles); try++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got, want := fmt.Sprint(ctrs.Load(), cgs.Load()), fmt.Sprint(cycles, cycles); got != want {
		t.Fatalf("collected containers, cgroups = %s, want %s", got, want)
	}
	runtime.KeepAlive(h)
}
