package integration

import (
	"testing"
	"time"

	"arv/internal/cluster"
	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/sim"
	"arv/internal/units"
	"arv/internal/webserver"
	"arv/internal/workloads"
)

// kernelSample is one row of a host's observable-state history.
type kernelSample struct {
	at   sim.Time
	ecpu int
	emem units.Bytes
	load float64
	free units.Bytes
	swap units.Bytes
}

// clusterMemberConfig is one member host of the cluster-vs-standalone
// determinism scenario; index i gets its own seed and load shape.
func clusterMemberConfig(i int) host.Config {
	return host.Config{
		CPUs: 8, Memory: 16 * units.GiB,
		Seed: uint64(5 + i),
	}
}

// populateClusterMember builds the per-host workload — an adaptive web
// server under a quota plus an unlimited sysbench co-runner, both
// shaped by the host index — and arms the 10 ms history sampler.
func populateClusterMember(h *host.Host, i int, samples *[]kernelSample) {
	web := h.Runtime.Create(container.Spec{
		Name: "web", CPUQuotaUS: int64(200_000 + 100_000*i), CPUPeriodUS: 100_000,
		MemHard: 2 * units.GiB, Gamma: 0.6,
	})
	web.Exec("app")
	webserver.New(h, web, webserver.Config{
		Sizing:      webserver.SizeAdaptive,
		RequestRate: float64(100 * (i + 1)),
		ServiceCost: 0.01,
		QueueLimit:  128,
		Duration:    clusterDetSpan,
	}).Start()
	bg := h.Runtime.Create(container.Spec{Name: "bg"})
	bg.Exec("app")
	workloads.NewSysbench(h, bg, 2+i, 1000).Start()

	h.Clock.Every(10*time.Millisecond, func(now sim.Time) {
		*samples = append(*samples, kernelSample{
			at:   now,
			ecpu: web.NS.EffectiveCPU(),
			emem: web.NS.EffectiveMemory(),
			load: h.Sched.LoadAvg(),
			free: h.Mem.Free(),
			swap: h.Mem.Swap().Used(),
		})
	})
}

const (
	clusterDetNodes = 3
	clusterDetSpan  = 2 * time.Second
)

// TestClusterMatchesStandaloneHosts extends TestCrossHostIsolation to
// the cluster kernel: with no scheduler placements (so nothing can
// migrate), an N-host cluster — rebalance rounds armed, every round
// reading every host's published snapshot — must produce histories
// byte-identical to the same N hosts built standalone and run one after
// another. The cluster layer's lockstep spans, its snapshot warming,
// and its per-round scheduler reads are all invisible to host dynamics.
func TestClusterMatchesStandaloneHosts(t *testing.T) {
	standalone := make([][]kernelSample, clusterDetNodes)
	for i := 0; i < clusterDetNodes; i++ {
		h := host.New(clusterMemberConfig(i))
		populateClusterMember(h, i, &standalone[i])
		h.Run(clusterDetSpan)
	}
	for i, s := range standalone {
		if len(s) == 0 {
			t.Fatalf("standalone host %d produced no history", i)
		}
	}

	cfg := cluster.Config{
		Lens:           cluster.LensAdaptive,
		RebalanceEvery: 50 * time.Millisecond,
	}
	members := make([]cluster.NodeConfig, clusterDetNodes)
	for i := range members {
		members[i] = cluster.NodeConfig{Host: clusterMemberConfig(i)}
	}
	c := cluster.New(cfg, members...)
	clustered := make([][]kernelSample, clusterDetNodes)
	for i, n := range c.Nodes() {
		populateClusterMember(n.Host, i, &clustered[i])
	}
	c.Run(clusterDetSpan)

	for i := range standalone {
		if len(clustered[i]) != len(standalone[i]) {
			t.Errorf("node %d: history length %d != standalone %d",
				i, len(clustered[i]), len(standalone[i]))
			continue
		}
		for k := range standalone[i] {
			if clustered[i][k] != standalone[i][k] {
				t.Errorf("node %d: history diverges at sample %d:\nstandalone %+v\nclustered  %+v",
					i, k, standalone[i][k], clustered[i][k])
				break
			}
		}
	}
}
