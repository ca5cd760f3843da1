package cluster

// This file is live migration: the placement records the scheduler
// keeps per deployed container, the periodic rebalance rounds that
// re-score them, and the COSCO-style cost model that prices a move
// (transfer = image size / destination bandwidth + |latency delta|).
// A migration is a spec-preserving detach/recreate — the same
// machinery the faults kill/restart path uses: destroy on the source,
// recreate from the kept spec on the destination after the modeled
// transfer time, re-exec the kept command, and hand the fresh container
// to the placement's Bind hook so the workload rebinds.

import (
	"time"

	"arv/internal/container"
	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// placement is the scheduler's record of one deployed container: the
// migratable spec and command, the rebind hook, and where the container
// currently lives. While a migration is in flight the record points at
// the destination node with a nil container; the destination host's
// completion timer fills ctr back in. The cluster only touches records
// between host runs; an in-flight record is touched only by its
// destination host's timer.
type placement struct {
	spec container.Spec
	cmd  string
	pin  bool
	bind func(*Node, *container.Container)

	node     *Node
	ctr      *container.Container
	inFlight bool
}

// rebalance is one periodic scheduling round: rebuild the host states,
// re-score every live unpinned placement, and migrate the worst-placed
// containers — at most MaxMigrationsPerRound of them — whose best
// alternative beats their current node by more than the hysteresis
// margin. A round that moves nothing is allocation-free.
func (c *Cluster) rebalance(now sim.Time) {
	c.Trace.Add(telemetry.CtrRebalanceRounds, 1)
	c.buildStates()
	scorer := c.cfg.scorer()
	maxMoves := c.cfg.MaxMigrationsPerRound
	if maxMoves <= 0 {
		maxMoves = 1
	}
	moved := 0
	for _, p := range c.placements {
		if moved >= maxMoves {
			break
		}
		if p.pin || p.inFlight || p.ctr == nil || p.ctr.State() == container.Stopped {
			continue
		}
		// Score the current node with the container's own footprint
		// removed — it competes for its slot like a fresh arrival.
		c.scratch = c.states[p.node.Index]
		self := c.selfFootprint(p)
		c.scratch.CPUCommit -= self.cpu
		c.scratch.MemCommit -= self.mem
		curScore := c.score(scorer, &c.scratch, &p.spec)

		var best *Node
		bestScore := curScore
		for i := range c.states {
			if c.states[i].Node == p.node {
				continue
			}
			if s := c.score(scorer, &c.states[i], &p.spec); s > bestScore {
				best, bestScore = c.states[i].Node, s
			}
		}
		if best == nil || bestScore-curScore <= c.cfg.Hysteresis {
			continue
		}
		c.migrate(p, best, now)
		moved++
	}
}

// footprint is a placement's lens-visible contribution to its node.
type footprint struct {
	cpu float64
	mem units.Bytes
}

// selfFootprint reads, from the placement's node's snapshot, what the
// container itself contributes to the node's committed capacity under
// the configured lens, so re-scoring its current node does not count it
// twice. Under LensAdaptive the footprint is the effective view capped
// at the spec's demand (an unlimited container's view includes shared
// slack it does not own); a placement with no view yet — just created,
// or migrating in — reserves its demand.
func (c *Cluster) selfFootprint(p *placement) footprint {
	snap := p.node.Host.Monitor.Snapshot()
	cv := snap.Container(p.spec.Name)
	if c.cfg.Lens == LensAdaptive {
		fp := footprint{cpu: demandCPU(&p.spec), mem: p.spec.MemHard}
		if cv != nil {
			if e := float64(cv.EffectiveCPU); e < fp.cpu {
				fp.cpu = e
			}
			fp.mem = cv.EffectiveMemory
		}
		return fp
	}
	if cv == nil {
		return footprint{}
	}
	fp := footprint{}
	if gv := snap.Cgroup(cv.Name); gv != nil {
		if gv.QuotaUS > 0 && gv.PeriodUS > 0 {
			fp.cpu = float64(gv.QuotaUS) / float64(gv.PeriodUS)
		}
		fp.mem = gv.HardLimit
	}
	return fp
}

// migrationTime prices a move with the COSCO cost model: image size
// over the destination's allocated bandwidth, plus the absolute network
// latency difference between the two nodes, rounded up to the tick grid
// (a migration always takes at least one tick).
func (c *Cluster) migrationTime(size units.Bytes, src, dst *Node) time.Duration {
	bw := dst.bandwidth
	if bw <= 0 {
		bw = units.GiB
	}
	d := time.Duration(float64(size) / float64(bw) * float64(time.Second))
	lat := src.latency - dst.latency
	if lat < 0 {
		lat = -lat
	}
	return c.align(d + lat)
}

// migrate starts a live migration of p to dst: destroy the source
// container now (its programs observe the stop and retire), then
// recreate it — same spec, same command — on the destination when the
// modeled transfer completes. Counters and the trace event are recorded
// at initiation, on the cluster goroutine; the completion timer runs
// inside the destination host's step and touches only that host and
// this record.
func (c *Cluster) migrate(p *placement, dst *Node, now sim.Time) {
	src := p.node
	cost := c.migrationTime(p.spec.ImageSize, src, dst)
	src.Host.Runtime.Destroy(p.ctr)
	p.node = dst
	p.ctr = nil
	p.inFlight = true
	c.Trace.Add(telemetry.CtrMigrations, 1)
	c.Trace.Add(telemetry.CtrMigrationMS, uint64(cost/time.Millisecond))
	c.Trace.Emit(now, telemetry.KindMigration, p.spec.Name,
		int64(dst.Index), int64(cost))
	dst.Host.Clock.After(cost, func(at sim.Time) {
		nc := dst.Host.Runtime.Create(p.spec)
		nc.Exec(p.cmd)
		p.ctr = nc
		p.inFlight = false
		if p.bind != nil {
			p.bind(dst, nc)
		}
	})
}
