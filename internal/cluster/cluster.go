// Package cluster lifts the single-host simulation to a deterministic
// multi-host kernel: N share-nothing host.Hosts stepped in lockstep on
// one cluster-level sim.Clock, a placement scheduler with pluggable
// scoring (bin-packing / fragmentation-fill, affinity/anti-affinity,
// per-host health), and live container migration driven by a
// COSCO-style cost model (transfer time = image size / destination
// bandwidth + latency delta).
//
// # Lockstep kernel
//
// The cluster owns its own clock, advancing on the same tick as its
// hosts. Run is a loop of Step, and each Step is one lockstep tick:
// every host steps once, in node order, then the cluster clock steps
// and fires the cluster events due on that tick boundary — experiment
// arrivals, rebalance rounds, scheduled with At/Every and rounded up to
// the tick grid — with every host parked at exactly the event instant.
// Hosts are share-nothing (TestCrossHostIsolation), so stepping them
// tick by tick gives the same history as running each across a span,
// and a 1-host cluster with no cluster events is exactly the
// single-host kernel.
//
// # Determinism rules
//
// Everything the scheduler reads comes from each host's published
// immutable ViewSnapshot (lock-free, non-perturbing; DESIGN.md §11), so
// observing a host never changes its history. Cluster events land on
// the host tick grid (At/Every round up), migrations complete on
// destination-host timers, and every tie in scoring breaks by node
// index — same seeds in, same bytes out.
package cluster

import (
	"fmt"
	"time"

	"arv/internal/host"
	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// NodeConfig describes one cluster member: its host configuration plus
// the network properties the migration cost model uses.
type NodeConfig struct {
	// Host sizes the member's simulated machine. All members must share
	// one Tick.
	Host host.Config

	// Bandwidth is the node's image-transfer bandwidth in bytes per
	// (virtual) second; zero selects 1 GiB/s. Latency is the node's
	// network latency to the cluster fabric; a migration pays the
	// absolute latency difference between source and destination on top
	// of the transfer time (the COSCO cost model).
	Bandwidth units.Bytes
	Latency   time.Duration
}

// Node is one live cluster member.
type Node struct {
	// Index is the node's position in the cluster, the deterministic
	// tie-breaker for scoring.
	Index int
	// Host is the member's simulated machine. Tests and experiments may
	// populate it directly (background load the scheduler did not
	// place); the scheduler observes such containers through the
	// published view snapshots like any others.
	Host *host.Host

	bandwidth units.Bytes
	latency   time.Duration
}

// Config tunes the cluster kernel and its placement scheduler.
type Config struct {
	// Lens selects what the scheduler sees in a host state: configured
	// limits only (LensStatic) or the adaptive effective views
	// (LensAdaptive). Scorer ranks candidate nodes; nil selects
	// BinPack{}.
	Lens   Lens
	Scorer Scorer

	// RebalanceEvery arms periodic rebalance rounds (rounded up to the
	// tick grid); zero disables migration entirely.
	RebalanceEvery time.Duration
	// MaxMigrationsPerRound bounds moves per round (0 = 1). Hysteresis
	// is the score improvement a move must clear; it damps ping-pong
	// between near-equal nodes.
	MaxMigrationsPerRound int
	Hysteresis            float64
}

func (cfg Config) scorer() Scorer {
	if cfg.Scorer == nil {
		return BinPack{}
	}
	return cfg.Scorer
}

// Cluster is the multi-host kernel plus its placement scheduler.
type Cluster struct {
	cfg   Config
	tick  time.Duration
	clock *sim.Clock
	nodes []*Node

	// Trace receives the cluster-level counters (placements,
	// migrations, migration_ms, rebalance rounds) and events. New gives
	// it a tracer that counts and records no events; host-level
	// telemetry stays per-host in each node's Host.Trace.
	Trace *telemetry.Tracer

	placements []*placement

	// Preallocated scoring state, refreshed per round from the nodes'
	// published snapshots; scratch is the copy used to re-score a
	// placement's current node with its own contribution removed.
	// Keeping these on the Cluster makes a no-move rebalance round
	// allocation-free (gated by BenchmarkClusterSteady).
	states  []HostState
	scratch HostState
}

// New builds a cluster of the given members. Every member must use the
// same host tick (the lockstep grid). The cluster warms each host's
// snapshot publication — the scheduler is a standing consumer — so
// every placement decision reads views at most one update period old.
func New(cfg Config, members ...NodeConfig) *Cluster {
	if len(members) == 0 {
		panic("cluster: no members")
	}
	tick := members[0].Host.Tick
	if tick <= 0 {
		tick = time.Millisecond
	}
	c := &Cluster{
		cfg:   cfg,
		tick:  tick,
		clock: sim.NewClock(tick),
		nodes: make([]*Node, len(members)),
		Trace: new(telemetry.Tracer),
	}
	for i, m := range members {
		mt := m.Host.Tick
		if mt <= 0 {
			mt = time.Millisecond
		}
		if mt != tick {
			panic(fmt.Sprintf("cluster: node %d tick %v != cluster tick %v", i, mt, tick))
		}
		h := host.New(m.Host)
		h.Monitor.WarmSnapshot()
		c.nodes[i] = &Node{
			Index: i, Host: h,
			bandwidth: m.Bandwidth, latency: m.Latency,
		}
	}
	c.states = make([]HostState, len(c.nodes))
	if cfg.RebalanceEvery > 0 {
		c.clock.Every(c.align(cfg.RebalanceEvery), c.rebalance)
	}
	return c
}

// Nodes returns the cluster members in index order.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// EnableTelemetry replaces c.Trace with a fresh tracer that records
// events (ring capacity ringSize) and returns it. Host-level telemetry
// stays per-host via Host.EnableTelemetry.
func (c *Cluster) EnableTelemetry(ringSize int) *telemetry.Tracer {
	c.Trace = telemetry.New(ringSize)
	return c.Trace
}

// At schedules fn once at now+d on the cluster clock, with every host
// parked at exactly that instant; d is rounded up to the tick grid.
func (c *Cluster) At(d time.Duration, fn func(now sim.Time)) {
	c.clock.After(c.align(d), fn)
}

// Every schedules fn periodically on the cluster clock, first firing
// one (grid-rounded) period from now.
func (c *Cluster) Every(period time.Duration, fn func(now sim.Time)) {
	c.clock.Every(c.align(period), fn)
}

// align rounds d up to a positive multiple of the lockstep tick so
// cluster events always land on host tick boundaries.
func (c *Cluster) align(d time.Duration) time.Duration {
	if r := d % c.tick; r != 0 {
		d += c.tick - r
	}
	if d <= 0 {
		d = c.tick
	}
	return d
}

// Run advances the whole cluster by d (a multiple of the tick) as a
// loop of Step.
func (c *Cluster) Run(d time.Duration) {
	deadline := c.clock.Now() + d
	for c.clock.Now() < deadline {
		c.Step()
	}
}

// Step advances every host one tick, in node order, and then the
// cluster clock, firing any cluster events due on the new tick boundary
// with every host parked there. It returns the new time.
func (c *Cluster) Step() sim.Time {
	for _, n := range c.nodes {
		n.Host.Step()
	}
	return c.clock.Step()
}
