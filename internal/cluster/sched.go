package cluster

// This file is the placement scheduler: the lens that turns a node's
// published ViewSnapshot into a HostState, the pluggable scorers that
// rank candidate nodes, and Deploy, the entry point that places a
// container spec on the best node.

import (
	"arv/internal/container"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// Lens selects what the scheduler sees when it builds a HostState from
// a node's snapshot — the experiment knob at the heart of the cluster
// layer's question: is placement better off reading adaptive views?
type Lens int

const (
	// LensStatic sees only what an administrator configured: the sum of
	// quota-derived CPU limits (an unlimited container counts zero) and
	// hard memory limits. Live load, effective views, free memory, and
	// view health are invisible — this is a scheduler reading cgroup
	// control files, the pre-paper world.
	LensStatic Lens = iota
	// LensAdaptive sees the paper's effective views: the host's live
	// load average and memory use, per-view degradation flags, and the
	// effective (not configured) footprint of every scheduler
	// placement. Committed CPU is max(load, placed effective demand) —
	// load alone lags arrivals not yet ramped, placed demand alone
	// misses background the scheduler never placed, the max covers
	// both. (Per-container effective views are deliberately not summed
	// into commitment: an unlimited container's view includes the
	// host's shared slack, so a sum double-counts it per container.)
	LensAdaptive
)

// String returns the lens name.
func (l Lens) String() string {
	if l == LensAdaptive {
		return "adaptive"
	}
	return "static"
}

// HostState is one node's scored-against state, built per scheduling
// round from the node's published snapshot through the configured lens.
type HostState struct {
	// Node is the member this state describes.
	Node *Node
	// NCPU and TotalMemory are the node's capacity.
	NCPU        int
	TotalMemory units.Bytes
	// CPUCommit (CPUs) and MemCommit are the committed capacity as the
	// lens sees it: configured limits under LensStatic, effective views
	// under LensAdaptive.
	CPUCommit float64
	MemCommit units.Bytes
	// Load, FreeMemory, Degraded, and Containers are live-health
	// signals populated only under LensAdaptive (a static scheduler
	// cannot see them; they stay zero and Health scores inert).
	Load       float64
	FreeMemory units.Bytes
	Degraded   int
	Containers int

	// placedCPU/placedMem accumulate the effective demand of scheduler
	// placements on the node (LensAdaptive only) before folding into
	// the commitment as a floor under the lagging load average.
	placedCPU float64
	placedMem units.Bytes
}

// Scorer rates placing spec on a candidate node; higher is better.
// Implementations must be pure functions of (st, spec) — they run once
// per node per round, must not allocate, and break ties nowhere (the
// scheduler breaks ties by node index).
type Scorer interface {
	// Score rates the candidate host state for spec.
	Score(st *HostState, spec *container.Spec) float64
}

// demandCPU is the CPUs a spec asks for: its quota if limited, its
// cpuset width otherwise, else one nominal CPU.
func demandCPU(spec *container.Spec) float64 {
	if spec.CPUQuotaUS > 0 {
		period := spec.CPUPeriodUS
		if period == 0 {
			period = 100_000
		}
		return float64(spec.CPUQuotaUS) / float64(period)
	}
	if spec.CpusetCPUs > 0 {
		return float64(spec.CpusetCPUs)
	}
	return 1
}

// projectedUtil is the node's dominant-dimension utilization after
// hypothetically adding spec: committed CPUs plus the spec's demand
// over capacity, or the memory equivalent, whichever is larger. May
// exceed 1 — the scheduler (not the scorers) penalizes overflow, so
// every scorer composition, at any weight sign, prefers fitting nodes.
func projectedUtil(st *HostState, spec *container.Spec) float64 {
	util := (st.CPUCommit + demandCPU(spec)) / float64(st.NCPU)
	if st.TotalMemory > 0 && spec.MemHard > 0 {
		if m := float64(st.MemCommit+spec.MemHard) / float64(st.TotalMemory); m > util {
			util = m
		}
	}
	return util
}

// unfitPenalty is subtracted from any node the spec overcommits, on
// top of the overflow amount, so a fitting node beats an overflowing
// one under every scorer whose composite magnitude stays below it.
const unfitPenalty = 1000

// score is the scheduler's full rating of a candidate: the configured
// scorer's opinion, minus the uniform overflow penalty when the spec
// does not fit. Ordering among overflowing nodes degrades gracefully to
// least-overflow-first.
func (c *Cluster) score(scorer Scorer, st *HostState, spec *container.Spec) float64 {
	s := scorer.Score(st, spec)
	if over := projectedUtil(st, spec) - 1; over > 0 {
		s -= unfitPenalty + over
	}
	return s
}

// BinPack is the bin-packing / fragmentation-fill scorer: it prefers
// the node that ends up fullest on its dominant dimension,
// concentrating load so whole nodes stay empty for large arrivals.
// Composed with a negative weight it inverts into worst-fit spreading;
// in either orientation the scheduler's overflow penalty keeps fitting
// nodes ahead of overcommitted ones.
type BinPack struct{}

// Score returns the projected dominant-dimension utilization.
func (BinPack) Score(st *HostState, spec *container.Spec) float64 {
	return projectedUtil(st, spec)
}

// Health penalizes nodes whose views look unhealthy: normalized load
// average plus the fraction of container views running degraded (the
// staleness fallback of DESIGN.md §9). Under LensStatic both inputs are
// zero, so Health is inert — health is precisely the signal a
// static-limit scheduler does not have.
type Health struct{}

// Score returns 0 for an idle healthy node, going negative with load
// and degraded views.
func (Health) Score(st *HostState, spec *container.Spec) float64 {
	s := -st.Load / float64(st.NCPU)
	if st.Containers > 0 {
		s -= float64(st.Degraded) / float64(st.Containers)
	}
	return s
}

// Weighted scales a scorer inside a Composite.
type Weighted struct {
	// S is the wrapped scorer; W its weight (negative inverts: BinPack
	// with W < 0 spreads instead of packs).
	S Scorer
	W float64
}

// Composite sums weighted scorers — the way an experiment assembles a
// policy from the plugins.
type Composite []Weighted

// Score sums the weighted member scores.
func (cs Composite) Score(st *HostState, spec *container.Spec) float64 {
	s := 0.0
	for _, w := range cs {
		s += w.W * w.S.Score(st, spec)
	}
	return s
}

// buildStates refreshes c.states from every node's published snapshot
// through the configured lens. Allocation-free in steady state: the
// slice is preallocated and snapshot reads are lock-free.
func (c *Cluster) buildStates() {
	for i, n := range c.nodes {
		snap := n.Host.Monitor.Snapshot()
		st := &c.states[i]
		*st = HostState{
			Node:        n,
			NCPU:        snap.Host.NCPU,
			TotalMemory: snap.Host.TotalMemory,
		}
		st.Containers = len(snap.Containers)
		switch c.cfg.Lens {
		case LensAdaptive:
			st.Load = snap.Host.LoadAvg
			st.FreeMemory = snap.Host.FreeMemory
			st.CPUCommit = snap.Host.LoadAvg
			st.MemCommit = snap.Host.TotalMemory - snap.Host.FreeMemory
			for k := range snap.Containers {
				if snap.Containers[k].Degraded {
					st.Degraded++
				}
			}
		default: // LensStatic
			for k := range snap.Containers {
				cv := &snap.Containers[k]
				gv := snap.Cgroup(cv.Name)
				if gv == nil {
					continue
				}
				if gv.QuotaUS > 0 && gv.PeriodUS > 0 {
					st.CPUCommit += float64(gv.QuotaUS) / float64(gv.PeriodUS)
				}
				st.MemCommit += gv.HardLimit
			}
		}
	}
	if c.cfg.Lens != LensAdaptive {
		return
	}
	// The load average lags arrivals: a service placed moments ago has
	// barely dented it yet. Fold the placements' effective demand in as
	// a floor, so commitment covers both what the host measures and
	// what the scheduler itself just put (or is migrating) there.
	for _, p := range c.placements {
		if (p.ctr == nil && !p.inFlight) || (p.ctr != nil && p.ctr.State() == container.Stopped) {
			continue
		}
		fp := c.selfFootprint(p)
		st := &c.states[p.node.Index]
		st.placedCPU += fp.cpu
		st.placedMem += fp.mem
	}
	for i := range c.states {
		st := &c.states[i]
		if st.placedCPU > st.CPUCommit {
			st.CPUCommit = st.placedCPU
		}
		if st.placedMem > st.MemCommit {
			st.MemCommit = st.placedMem
		}
	}
}

// pick returns the best node for spec under the configured scorer, ties
// broken by lowest node index. It assumes c.states is current.
func (c *Cluster) pick(spec *container.Spec) (*Node, float64) {
	scorer := c.cfg.scorer()
	best := &c.states[0]
	bestScore := c.score(scorer, best, spec)
	for i := 1; i < len(c.states); i++ {
		if s := c.score(scorer, &c.states[i], spec); s > bestScore {
			best, bestScore = &c.states[i], s
		}
	}
	return best.Node, bestScore
}

// DeployOpts tunes one Deploy.
type DeployOpts struct {
	// Command is exec'd in the new container ("app" when empty), and
	// again in every migrated recreation.
	Command string
	// Pin excludes the placement from rebalancing: the container never
	// migrates (a latency-sensitive service whose placement quality is
	// judged by where it landed, not where it could move).
	Pin bool
	// Bind runs after the container is created and exec'd — at initial
	// placement and again after every migration completes — so the
	// caller can (re)start the workload driving the container. It is
	// the cluster-level twin of faults.KillRule.OnRestart.
	Bind func(*Node, *container.Container)
}

// Deploy places spec on the best node per the configured lens and
// scorer, creates and execs the container there, records the placement
// for future rebalancing, and returns the chosen node and container.
func (c *Cluster) Deploy(spec container.Spec, opts DeployOpts) (*Node, *container.Container) {
	if opts.Command == "" {
		opts.Command = "app"
	}
	c.buildStates()
	n, score := c.pick(&spec)
	ctr := n.Host.Runtime.Create(spec)
	ctr.Exec(opts.Command)
	p := &placement{
		spec: spec, cmd: opts.Command, pin: opts.Pin, bind: opts.Bind,
		node: n, ctr: ctr,
	}
	c.placements = append(c.placements, p)
	c.Trace.Add(telemetry.CtrPlacements, 1)
	c.Trace.Emit(c.clock.Now(), telemetry.KindPlacement, spec.Name,
		int64(n.Index), int64(score*1e6))
	if opts.Bind != nil {
		opts.Bind(n, ctr)
	}
	return n, ctr
}
