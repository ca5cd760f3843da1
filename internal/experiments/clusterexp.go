package experiments

import (
	"fmt"
	"time"

	"arv/internal/cluster"
	"arv/internal/container"
	"arv/internal/faults"
	"arv/internal/host"
	"arv/internal/telemetry"
	"arv/internal/texttable"
	"arv/internal/units"
	"arv/internal/webserver"
	"arv/internal/workloads"
)

func init() {
	register("ext-cluster", "Extension: cluster placement — view-aware vs static-limit scheduling", ExtCluster)
}

// Phase layout of the cluster experiment. Durations are fixed — not
// scaled by Options.Scale — because the dynamics under test (quota
// churn, rebalance cadence, open-loop serving) are absolute-time
// phenomena, like fault-churn.
const (
	clusterSpan    = 8 * time.Second        // arrivals and churn window
	clusterDrain   = 2 * time.Second        // servers drain their queues
	clusterSvcStep = 500 * time.Millisecond // one service arrival per step
	clusterNSvc    = 6
	clusterNBatch  = 3
)

// clusterArm is one scheduler configuration's outcome.
type clusterArm struct {
	perNode    []int // service placements per node
	migrations uint64
	migMS      uint64
	rounds     uint64
	served     int
	dropped    int
	meanLat    time.Duration
	worstP99   time.Duration
	frag       float64 // time-averaged max-min load spread across nodes
}

// runClusterArm runs the three-node scenario under one lens. Everything
// except the lens — seeds, background load, churn, arrival times — is
// identical between arms, so the outcome difference is purely what the
// scheduler could see.
func runClusterArm(lens cluster.Lens) clusterArm {
	c := cluster.New(cluster.Config{
		Lens: lens,
		Scorer: cluster.Composite{
			{S: cluster.BinPack{}, W: -1}, // spread: emptiest node wins
			{S: cluster.Health{}, W: 1},   // ...unless its views look sick
		},
		RebalanceEvery:        250 * time.Millisecond,
		MaxMigrationsPerRound: 2,
		Hysteresis:            0.1,
	},
		cluster.NodeConfig{Host: clusterMember(1), Bandwidth: 200 * units.MiB, Latency: 2 * time.Millisecond},
		cluster.NodeConfig{Host: clusterMember(2), Bandwidth: 200 * units.MiB, Latency: 6 * time.Millisecond},
		cluster.NodeConfig{Host: clusterMember(3), Bandwidth: 200 * units.MiB, Latency: 10 * time.Millisecond},
	)
	tr := c.Trace
	nodes := c.Nodes()

	// Background the scheduler did not place. Node 0 runs hot with
	// unlimited containers — invisible to a static-limit scheduler,
	// plain as day in the effective views. Node 2 is nearly idle but
	// hosts a decoy whose large quota an external controller churns
	// (the fault injector): a static scheduler sees node 2 as heavily
	// committed, the adaptive one sees ~1 effective CPU.
	bgThreads := [][]int{{3, 3, 3, 3}, {2, 2}, {}}
	for i, n := range nodes {
		for k, threads := range bgThreads[i] {
			bg := n.Host.Runtime.Create(container.Spec{Name: fmt.Sprintf("bg%d-%d", i, k)})
			bg.Exec("app")
			workloads.NewSysbench(n.Host, bg, threads, 1000).Start()
		}
	}
	decoy := nodes[2].Host.Runtime.Create(container.Spec{
		Name: "decoy", CPUQuotaUS: 1_000_000, CPUPeriodUS: 100_000,
	})
	decoy.Exec("app")
	workloads.NewSysbench(nodes[2].Host, decoy, 1, 1000).Start()
	inj := faults.Attach(nodes[2].Host, faults.Config{Seed: 7})
	inj.StartChurn(faults.ChurnRule{
		Target:       "decoy",
		Interval:     250 * time.Millisecond,
		MinQuotaCPUs: 2,
		MaxQuotaCPUs: 10,
	})

	arm := clusterArm{perNode: make([]int, len(nodes))}
	var servers []*webserver.Server

	// Latency-sensitive services arrive every 500 ms and are pinned:
	// their tail latency judges where the scheduler put them.
	for i := 0; i < clusterNSvc; i++ {
		i := i
		c.At(time.Duration(i+1)*clusterSvcStep, func(now time.Duration) {
			spec := container.Spec{
				Name:       fmt.Sprintf("svc%d", i),
				CPUQuotaUS: 400_000, CPUPeriodUS: 100_000,
				Gamma:     0.6,
				ImageSize: 64 * units.MiB,
			}
			n, _ := c.Deploy(spec, cluster.DeployOpts{Pin: true, Bind: func(n *cluster.Node, ctr *container.Container) {
				srv := webserver.New(n.Host, ctr, webserver.Config{
					Sizing:      webserver.SizeAdaptive,
					RequestRate: 400,  // demand: 4 CPUs
					ServiceCost: 0.01, // 10 ms of CPU per request
					QueueLimit:  256,
					Duration:    clusterSpan - now,
				})
				srv.Start()
				servers = append(servers, srv)
			}})
			arm.perNode[n.Index]++
		})
	}

	// Migratable batch containers: rebalance rounds may move them; the
	// Bind hook restarts their work on the recreated container — the
	// faults OnRestart pattern at cluster level.
	for i := 0; i < clusterNBatch; i++ {
		i := i
		c.At(time.Duration(i+1)*clusterSvcStep+250*time.Millisecond, func(now time.Duration) {
			spec := container.Spec{
				Name:       fmt.Sprintf("batch%d", i),
				CPUQuotaUS: 200_000, CPUPeriodUS: 100_000,
				ImageSize: 32 * units.MiB,
			}
			c.Deploy(spec, cluster.DeployOpts{Bind: func(n *cluster.Node, ctr *container.Container) {
				workloads.NewSysbench(n.Host, ctr, 2, 1000).Start()
			}})
		})
	}

	// Fragmentation: time-averaged spread between the most and least
	// loaded node, sampled between host steps (the snapshot reads are
	// non-perturbing).
	fragSamples := 0
	c.Every(50*time.Millisecond, func(now time.Duration) {
		min, max := -1.0, -1.0
		for _, n := range nodes {
			l := n.Host.Monitor.Snapshot().Host.LoadAvg
			if min < 0 || l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		arm.frag += max - min
		fragSamples++
	})

	c.Run(clusterSpan + clusterDrain)

	arm.migrations = tr.Count(telemetry.CtrMigrations)
	arm.migMS = tr.Count(telemetry.CtrMigrationMS)
	arm.rounds = tr.Count(telemetry.CtrRebalanceRounds)
	arm.frag /= float64(fragSamples)
	var latSum time.Duration
	for _, s := range servers {
		arm.served += s.Stats.Served
		arm.dropped += s.Stats.Dropped
		latSum += s.Stats.MeanLatency() * time.Duration(s.Stats.Served)
		if p := s.Stats.PercentileLatency(99); p > arm.worstP99 {
			arm.worstP99 = p
		}
	}
	if arm.served > 0 {
		arm.meanLat = latSum / time.Duration(arm.served)
	}
	return arm
}

// clusterMember sizes one 16-CPU member host.
func clusterMember(seed uint64) host.Config {
	return host.Config{CPUs: 16, Memory: 64 * units.GiB, Tick: time.Millisecond, Seed: seed}
}

// ExtCluster runs the killer experiment of the cluster layer: the same
// three-node scenario — one node saturated by unlimited background
// containers, one moderately loaded, one nearly idle behind a decoy
// whose large quota churns — scheduled twice with the identical spread
// + health scorer, once reading only configured limits (LensStatic) and
// once reading the adaptive effective views (LensAdaptive). Pinned
// latency-sensitive services judge placement quality; migratable batch
// containers exercise live migration. Same seeds, byte-identical
// output, golden-locked.
func ExtCluster(opts Options) *Result {
	arms := make([]clusterArm, 2)
	lenses := []cluster.Lens{cluster.LensStatic, cluster.LensAdaptive}
	opts.forEach(2, func(i int) {
		arms[i] = runClusterArm(lenses[i])
	})

	t := texttable.New("view-aware vs static-limit placement on three uneven nodes",
		"lens", "svc_placements", "migrations", "mig_ms", "rounds",
		"served", "dropped", "mean_lat", "worst_p99", "frag")
	for i, a := range arms {
		place := ""
		for k, n := range a.perNode {
			if k > 0 {
				place += "/"
			}
			place += fmt.Sprint(n)
		}
		t.AddRow(lenses[i].String(), place, a.migrations, a.migMS, a.rounds,
			a.served, a.dropped,
			a.meanLat.Round(time.Millisecond).String(),
			a.worstP99.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2f", a.frag))
	}

	return &Result{
		ID: "ext-cluster", Title: "Cluster scheduling: what placement gains from adaptive views (extension)",
		Tables: []*texttable.Table{t},
		Notes: []string{
			"svc_placements counts pinned service containers per node (n0/n1/n2): node 0 is saturated by unlimited background work a static-limit scheduler cannot see, node 2 is nearly idle behind a churned decoy quota it wrongly fears.",
			"Both arms run the identical spread+health scorer over the identical cluster; only the lens differs, so every gap in the table is the value of scheduling on effective views instead of configured limits.",
		},
	}
}
