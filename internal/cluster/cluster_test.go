package cluster

import (
	"testing"
	"time"

	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
	"arv/internal/workloads"
)

// node16 is a 16-CPU / 32-GiB member with the given seed and network
// shape.
func node16(seed uint64, bw units.Bytes, lat time.Duration) NodeConfig {
	return NodeConfig{
		Host:      host.Config{CPUs: 16, Memory: 32 * units.GiB, Seed: seed},
		Bandwidth: bw,
		Latency:   lat,
	}
}

// placementCount returns how many live scheduler placements sit on n;
// in-flight migrations count toward their destination.
func placementCount(c *Cluster, n *Node) int {
	count := 0
	for _, p := range c.placements {
		if p.node == n && (p.inFlight || (p.ctr != nil && p.ctr.State() != container.Stopped)) {
			count++
		}
	}
	return count
}

func twoNodes(cfg Config) *Cluster {
	return New(cfg, node16(1, 100*units.MiB, 10*time.Millisecond),
		node16(2, 100*units.MiB, 2*time.Millisecond))
}

func TestDeployTieBreaksByIndex(t *testing.T) {
	c := twoNodes(Config{Scorer: BinPack{}})
	n, ctr := c.Deploy(container.Spec{Name: "a", CPUQuotaUS: 200_000, CPUPeriodUS: 100_000}, DeployOpts{})
	if n.Index != 0 {
		t.Fatalf("empty-cluster tie placed on node %d, want 0", n.Index)
	}
	if ctr.State() != container.Running || ctr.Command() != "app" {
		t.Fatalf("deployed container state=%v cmd=%q", ctr.State(), ctr.Command())
	}
	if got := placementCount(c, n); got != 1 {
		t.Fatalf("placements on node = %d, want 1", got)
	}
}

// TestBinPackPacksAndRejectsOverflow: bin-packing prefers the fuller
// node that still fits, and any fitting node beats an overflowing one.
func TestBinPackPacksAndRejectsOverflow(t *testing.T) {
	c := twoNodes(Config{Lens: LensStatic, Scorer: BinPack{}})
	// Static commitment of 8 CPUs on node 0.
	bg := c.Nodes()[0].Host.Runtime.Create(container.Spec{Name: "bg", CPUQuotaUS: 800_000, CPUPeriodUS: 100_000})
	bg.Exec("app")
	c.Run(10 * time.Millisecond)

	n, _ := c.Deploy(container.Spec{Name: "small", CPUQuotaUS: 200_000, CPUPeriodUS: 100_000}, DeployOpts{})
	if n.Index != 0 {
		t.Fatalf("binpack placed the fitting container on node %d, want the fuller node 0", n.Index)
	}
	// 10 more CPUs overflow node 0 (8+2 committed + 10 > 16); node 1 fits.
	n, _ = c.Deploy(container.Spec{Name: "big", CPUQuotaUS: 1_000_000, CPUPeriodUS: 100_000}, DeployOpts{})
	if n.Index != 1 {
		t.Fatalf("binpack overflowed node 0 with the big container (placed on %d), want 1", n.Index)
	}
}

// TestLensContrast: a busy unlimited container is invisible to the
// static lens (no limits configured) but dominates the adaptive one.
func TestLensContrast(t *testing.T) {
	spread := Composite{{S: BinPack{}, W: -1}}
	for _, tc := range []struct {
		lens Lens
		want int
	}{
		{LensStatic, 0},   // sees two empty nodes; tie breaks to 0
		{LensAdaptive, 1}, // sees node 0's effective commitment
	} {
		c := twoNodes(Config{Lens: tc.lens, Scorer: spread})
		n0 := c.Nodes()[0].Host
		bg := n0.Runtime.Create(container.Spec{Name: "bg"})
		bg.Exec("app")
		workloads.NewSysbench(n0, bg, 8, 1e9).Start()
		c.Run(200 * time.Millisecond)

		n, _ := c.Deploy(container.Spec{Name: "svc", CPUQuotaUS: 200_000, CPUPeriodUS: 100_000}, DeployOpts{})
		if n.Index != tc.want {
			t.Errorf("lens %v placed on node %d, want %d", tc.lens, n.Index, tc.want)
		}
	}
}

func TestHealthScore(t *testing.T) {
	spec := &container.Spec{Name: "x"}
	healthy := &HostState{NCPU: 16}
	loaded := &HostState{NCPU: 16, Load: 8, Degraded: 1, Containers: 4}
	h := Health{}
	if got := h.Score(healthy, spec); got != 0 {
		t.Fatalf("healthy idle node scored %v, want 0", got)
	}
	if got := h.Score(loaded, spec); got != -0.75 {
		t.Fatalf("loaded node scored %v, want -0.75 (load 0.5 + degraded 0.25)", got)
	}
}

// TestRebalanceMigrates drives one full migration: a spread scorer
// under the static lens discovers node 0 crowded, detaches the deployed
// container, and recreates it on node 1 after the modeled cost
// (50 MiB / 100 MiB/s + |10ms-2ms| = 508ms). The bind hook sees the
// recreated container.
func TestRebalanceMigrates(t *testing.T) {
	spread := Composite{{S: BinPack{}, W: -1}}
	c := twoNodes(Config{
		Lens: LensStatic, Scorer: spread,
		RebalanceEvery: 100 * time.Millisecond,
		Hysteresis:     0.2,
	})
	tr := c.EnableTelemetry(0)

	var bound []*Node
	spec := container.Spec{
		Name: "svc", CPUQuotaUS: 400_000, CPUPeriodUS: 100_000,
		ImageSize: 50 * units.MiB,
	}
	_, ctr := c.Deploy(spec, DeployOpts{Command: "srv", Bind: func(n *Node, nc *container.Container) {
		bound = append(bound, n)
	}})
	if len(bound) != 1 || bound[0].Index != 0 {
		t.Fatalf("initial bind = %v, want node 0", bound)
	}

	// Crowd node 0 with an 8-CPU static commitment: staying scores
	// -(8+4)/16 = -0.75 vs -(0+4)/16 = -0.25 on node 1 — improvement
	// 0.5 clears the 0.2 hysteresis.
	bg := c.Nodes()[0].Host.Runtime.Create(container.Spec{Name: "bg", CPUQuotaUS: 800_000, CPUPeriodUS: 100_000})
	bg.Exec("app")

	c.Run(150 * time.Millisecond) // one rebalance round at t=100ms
	if ctr.State() != container.Stopped {
		t.Fatal("source container not detached at migration start")
	}
	if got := tr.Count(telemetry.CtrMigrations); got != 1 {
		t.Fatalf("migrations = %d, want 1", got)
	}
	if got := tr.Count(telemetry.CtrMigrationMS); got != 508 {
		t.Fatalf("migration_ms = %d, want 508", got)
	}
	if got := placementCount(c, c.Nodes()[1]); got != 1 {
		t.Fatalf("in-flight placement not counted on destination: %d", got)
	}

	c.Run(500 * time.Millisecond) // past t=608ms: recreation fired
	if len(bound) != 2 || bound[1].Index != 1 {
		t.Fatalf("bind after migration = %v, want [node0 node1]", bound)
	}
	nc := c.Nodes()[1].Host.Cgroups.Lookup("svc")
	if nc == nil {
		t.Fatal("migrated container's cgroup missing on node 1")
	}
	migrated := c.placements[0].ctr
	if migrated == nil || migrated.State() != container.Running ||
		migrated.Command() != "srv" || migrated.Spec.CPUQuotaUS != 400_000 {
		t.Fatalf("migrated container not a spec-preserving recreation: %+v", migrated)
	}
	ev := tr.EventsOf(telemetry.KindMigration)
	if len(ev) != 1 || ev[0].B != int64(508*time.Millisecond) {
		t.Fatalf("migration trace events = %v, want one with B=508ms", ev)
	}
}

func TestPinnedNeverMigrates(t *testing.T) {
	spread := Composite{{S: BinPack{}, W: -1}}
	c := twoNodes(Config{
		Lens: LensStatic, Scorer: spread,
		RebalanceEvery: 100 * time.Millisecond,
	})
	tr := c.EnableTelemetry(0)
	_, ctr := c.Deploy(container.Spec{Name: "svc", CPUQuotaUS: 400_000, CPUPeriodUS: 100_000}, DeployOpts{Pin: true})
	bg := c.Nodes()[0].Host.Runtime.Create(container.Spec{Name: "bg", CPUQuotaUS: 800_000, CPUPeriodUS: 100_000})
	bg.Exec("app")
	c.Run(400 * time.Millisecond)
	if ctr.State() == container.Stopped {
		t.Fatal("pinned container migrated")
	}
	if got := tr.Count(telemetry.CtrMigrations); got != 0 {
		t.Fatalf("migrations = %d, want 0", got)
	}
	if got := tr.Count(telemetry.CtrRebalanceRounds); got != 4 {
		t.Fatalf("rebalance rounds = %d, want 4", got)
	}
}

// clusterHistory runs a reference 3-node scenario — unlimited sysbench
// background on every node, two scheduler-deployed quota'd containers,
// migrations armed — and samples every host's effective state per
// 10ms. It is the fingerprint for the determinism tests.
type clusterSample struct {
	at   sim.Time
	node int
	ecpu int
	load float64
}

func clusterHistory() ([]clusterSample, uint64, uint64) {
	c := New(Config{
		Lens:           LensAdaptive,
		Scorer:         Composite{{S: BinPack{}, W: -1}, {S: Health{}, W: 1}},
		RebalanceEvery: 100 * time.Millisecond,
		Hysteresis:     0.05,
	},
		node16(11, 100*units.MiB, 1*time.Millisecond),
		node16(22, 100*units.MiB, 5*time.Millisecond),
		node16(33, 100*units.MiB, 9*time.Millisecond),
	)
	tr := c.EnableTelemetry(0)

	samples := make([][]clusterSample, len(c.Nodes()))
	for i, n := range c.Nodes() {
		i, n := i, n
		bg := n.Host.Runtime.Create(container.Spec{Name: "bg"})
		bg.Exec("app")
		workloads.NewSysbench(n.Host, bg, 2+3*i, 1e9).Start()
		n.Host.Clock.Every(10*time.Millisecond, func(now sim.Time) {
			samples[i] = append(samples[i], clusterSample{
				at: now, node: i,
				ecpu: bg.NS.EffectiveCPU(),
				load: n.Host.Sched.LoadAvg(),
			})
		})
	}
	for k := 0; k < 2; k++ {
		spec := container.Spec{
			Name:       []string{"svc0", "svc1"}[k],
			CPUQuotaUS: 300_000, CPUPeriodUS: 100_000,
			ImageSize: 10 * units.MiB,
		}
		c.Deploy(spec, DeployOpts{})
	}
	c.Run(time.Second)

	var flat []clusterSample
	for _, s := range samples {
		flat = append(flat, s...)
	}
	return flat, tr.Count(telemetry.CtrMigrations), tr.Count(telemetry.CtrPlacements)
}

// TestClusterDeterminism: the same seeds produce byte-identical
// histories and counters when the scenario runs again.
func TestClusterDeterminism(t *testing.T) {
	seq, seqMig, seqPlace := clusterHistory()
	if len(seq) == 0 {
		t.Fatal("reference run produced no history")
	}
	if seqPlace != 2 {
		t.Fatalf("placements = %d, want 2", seqPlace)
	}
	got, mig, place := clusterHistory()
	if mig != seqMig || place != seqPlace {
		t.Errorf("sequential-again: counters (mig %d, place %d) differ from reference (%d, %d)",
			mig, place, seqMig, seqPlace)
	}
	if len(got) != len(seq) {
		t.Fatalf("sequential-again: history length %d != reference %d", len(got), len(seq))
	}
	for i := range seq {
		if got[i] != seq[i] {
			t.Fatalf("sequential-again: history diverges at sample %d: %+v != %+v", i, got[i], seq[i])
		}
	}
}

// TestRunChunkingIsInvisible: many small Runs equal one big Run — the
// cluster inherits the host kernel's chunking determinism.
func TestRunChunkingIsInvisible(t *testing.T) {
	build := func() (*Cluster, *container.Container) {
		c := twoNodes(Config{Lens: LensAdaptive, Scorer: BinPack{}, RebalanceEvery: 50 * time.Millisecond})
		bg := c.Nodes()[0].Host.Runtime.Create(container.Spec{Name: "bg"})
		bg.Exec("app")
		workloads.NewSysbench(c.Nodes()[0].Host, bg, 6, 1e9).Start()
		return c, bg
	}
	c1, bg1 := build()
	c1.Run(300 * time.Millisecond)
	c2, bg2 := build()
	for i := 0; i < 12; i++ {
		c2.Run(25 * time.Millisecond)
	}
	if c1.clock.Now() != c2.clock.Now() {
		t.Fatalf("clock skew: %v vs %v", c1.clock.Now(), c2.clock.Now())
	}
	if e1, e2 := bg1.NS.EffectiveCPU(), bg2.NS.EffectiveCPU(); e1 != e2 {
		t.Fatalf("chunked run diverged: E_CPU %d vs %d", e1, e2)
	}
	if v1, v2 := c1.Nodes()[0].Host.Monitor.Snapshot().Version, c2.Nodes()[0].Host.Monitor.Snapshot().Version; v1 != v2 {
		t.Fatalf("snapshot versions diverged: %d vs %d", v1, v2)
	}
}

// TestEventAlignment: At rounds off-grid deadlines up to the tick grid
// and fires with every host parked at the event instant.
func TestEventAlignment(t *testing.T) {
	c := twoNodes(Config{})
	var fired sim.Time
	c.At(3500*time.Microsecond, func(now sim.Time) {
		fired = now
		for _, n := range c.Nodes() {
			if n.Host.Now() != now {
				t.Errorf("node %d at %v during event at %v", n.Index, n.Host.Now(), now)
			}
		}
	})
	c.Run(10 * time.Millisecond)
	if fired != 4*time.Millisecond {
		t.Fatalf("event fired at %v, want 4ms (rounded up from 3.5ms)", fired)
	}
}
