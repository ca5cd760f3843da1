// Package telemetry is the simulation's structured tracing and counting
// substrate. A Tracer owns a small set of monotonic counters plus an
// optional fixed-size ring buffer of Events; host, cfs, memctl, and
// sysns count and emit into it so an experiment can explain *why*
// effective CPU or memory moved (which kswapd run, which throttle span,
// which namespace update).
//
// Counting is always on: every host, scheduler, memory controller,
// monitor and cluster is built with a non-nil Tracer whose counters
// count and whose ring is empty, so Emit returns at once (faults and
// the autoscaler read the host's). Events are recorded only after
// EnableTelemetry hands the host a Tracer with a ring. Hot paths guard
// argument construction that costs real work behind Enabled().
//
// The Tracer is single-goroutine, like the simulation itself: it must
// only be used from the goroutine driving the host.
package telemetry

import (
	"fmt"

	"arv/internal/sim"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// KindThrottle / KindUnthrottle: a scheduling group's bandwidth
	// limit started / stopped binding. A = milli-CPUs allocated in the
	// transition tick.
	KindThrottle Kind = iota
	KindUnthrottle
	// KindKswapd: a background-reclaim pass completed. A = bytes
	// swapped out, B = free bytes afterwards.
	KindKswapd
	// KindDirectReclaim: an allocation fell below the min watermark.
	// A = bytes swapped out, B = free bytes afterwards.
	KindDirectReclaim
	// KindOOMKill: a group was OOM-killed. A = resident bytes freed.
	KindOOMKill
	// KindNSUpdate: one Algorithm 1 + 2 round for a namespace.
	// A = E_CPU, B = E_MEM bytes.
	KindNSUpdate
	// KindFault: the fault injector perturbed the system. Actor names
	// the fault ("event-drop", "event-delay", "update-lag",
	// "update-miss", "churn", "kill", "restart"); A and B are
	// fault-specific (e.g. the delay in nanoseconds, or the new quota).
	KindFault
	// KindStaleFallback: a namespace's view age exceeded the staleness
	// budget and the conservative fallback engaged. A = view age in
	// nanoseconds, B = the E_CPU the view fell back to.
	KindStaleFallback
	// KindResync: ns_monitor re-derived every namespace's bounds from
	// the cgroup hierarchy (the retry-with-backoff recovery path for
	// dropped events). A = 1 if drift was found (an event had been
	// missed), 0 otherwise; B = the next retry interval in nanoseconds.
	KindResync
	// KindPlacement: the cluster scheduler placed a container. Actor is
	// the container name; A = the chosen node index, B = the winning
	// score in millionths.
	KindPlacement
	// KindMigration: the cluster scheduler started a live migration.
	// Actor is the container name; A = the destination node index,
	// B = the modeled migration time in nanoseconds.
	KindMigration
	// KindResize: the autoscaler rewrote a managed container's limits.
	// Actor is the container name; A = the new cpu allocation in
	// milli-CPUs (applied as quota, or as shares under a shares-only
	// policy), B = the quota-bank milliseconds spent into this resize
	// (0 for non-banked policies).
	KindResize
)

// String returns the event-kind name.
func (k Kind) String() string {
	switch k {
	case KindThrottle:
		return "throttle"
	case KindUnthrottle:
		return "unthrottle"
	case KindKswapd:
		return "kswapd"
	case KindDirectReclaim:
		return "direct-reclaim"
	case KindOOMKill:
		return "oom-kill"
	case KindNSUpdate:
		return "ns-update"
	case KindFault:
		return "fault"
	case KindStaleFallback:
		return "stale-fallback"
	case KindResync:
		return "resync"
	case KindPlacement:
		return "placement"
	case KindMigration:
		return "migration"
	case KindResize:
		return "resize"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one trace record. Actor names the group, namespace, or
// subsystem the event concerns; A and B are kind-specific arguments.
type Event struct {
	At    sim.Time
	Kind  Kind
	Actor string
	A, B  int64
}

// String renders the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("%12v %-14s %-12s A=%d B=%d", e.At, e.Kind, e.Actor, e.A, e.B)
}

// Counter identifies one monotonic counter.
type Counter uint8

const (
	// CtrSteps counts kernel steps (ticks executed).
	CtrSteps Counter = iota
	// CtrProgramPolls counts Program.Poll invocations.
	CtrProgramPolls
	// CtrSchedTicks counts full scheduler allocation rounds.
	CtrSchedTicks
	// CtrNSUpdates counts per-namespace Algorithm 1+2 rounds.
	CtrNSUpdates
	// CtrKswapdRuns / CtrDirectReclaims / CtrOOMKills mirror the memctl
	// event counters.
	CtrKswapdRuns
	CtrDirectReclaims
	CtrOOMKills
	// CtrEventsDropped / CtrEventsDelayed count cgroup limit-change
	// events the fault injector suppressed or deferred before
	// ns_monitor saw them.
	CtrEventsDropped
	CtrEventsDelayed
	// CtrUpdatesLagged / CtrUpdatesMissed count periodic ns_monitor
	// rounds the fault injector postponed or skipped outright.
	CtrUpdatesLagged
	CtrUpdatesMissed
	// CtrLimitChurns counts cpu-quota / memory-limit rewrites performed
	// by the fault injector's churn rules.
	CtrLimitChurns
	// CtrKills counts containers the fault injector destroyed
	// (restarts are traced as KindFault "restart" events).
	CtrKills
	// CtrStaleFallbacks counts namespaces falling back to the
	// conservative view after exceeding the staleness budget.
	CtrStaleFallbacks
	// CtrStalenessMax is max-valued (see Tracer.Max): the largest view
	// age, in nanoseconds, observed at any namespace update.
	CtrStalenessMax
	// CtrRecomputeRetries counts retry-with-backoff bounds resyncs
	// ns_monitor ran to recover from possibly-dropped cgroup events.
	CtrRecomputeRetries
	// CtrSnapshotsPublished counts immutable view snapshots ns_monitor
	// published via its atomic pointer (see DESIGN.md §11).
	CtrSnapshotsPublished
	// CtrSnapshotReads counts resource probes answered from a published
	// snapshot by in-simulation readers (the prober workload). The HTTP
	// daemon counts its reads separately — it runs off the simulation
	// goroutine and must not touch the Tracer.
	CtrSnapshotReads
	// CtrSnapshotLagMax is max-valued (see Tracer.Max): the largest
	// snapshot age, in nanoseconds, an in-simulation reader observed at
	// probe time.
	CtrSnapshotLagMax
	// CtrPlacements counts containers placed by the cluster scheduler.
	CtrPlacements
	// CtrMigrations counts live migrations the cluster scheduler
	// started; CtrMigrationMS accumulates their modeled transfer time
	// (image size / bandwidth + latency delta) in milliseconds.
	CtrMigrations
	CtrMigrationMS
	// CtrRebalanceRounds counts cluster rebalance rounds, including
	// rounds that moved nothing.
	CtrRebalanceRounds
	// CtrAutoscaleResizes counts limit rewrites the autoscaler applied
	// to managed containers (cpu and memory resizes each count once).
	CtrAutoscaleResizes
	// CtrAutoscaleClamped counts autoscaler decisions whose requested
	// allocation had to be clamped into the target's min/max range.
	CtrAutoscaleClamped
	// CtrAutoscaleBankSpentMS accumulates the quota-bank CPU-milliseconds
	// the banked policy spent on bursts.
	CtrAutoscaleBankSpentMS
	// CtrTickRepairs counts scheduler ticks that repaired a dirty
	// allocation memo; every other tick is quiet. CtrTickRebuilds counts
	// full O(groups) rebuild ticks, which only the test oracle runs.
	CtrTickRepairs
	CtrTickRebuilds
	// CtrBoundsFlushes counts ns_monitor bounds passes: each flush that
	// applied marks or pending dilutions, and each FullRecompute.
	// CtrBoundsRecomputed counts the namespace bounds those passes
	// recalculated.
	CtrBoundsFlushes
	CtrBoundsRecomputed
	// CtrWindowSettles counts the groups the view round's settle pass
	// (cfs.Scheduler.SettleWindows) visited: the active groups.
	CtrWindowSettles

	numCounters
)

// String returns the counter name.
func (c Counter) String() string {
	switch c {
	case CtrSteps:
		return "kernel.steps"
	case CtrProgramPolls:
		return "kernel.program_polls"
	case CtrSchedTicks:
		return "sched.ticks"
	case CtrNSUpdates:
		return "sysns.updates"
	case CtrKswapdRuns:
		return "mem.kswapd_runs"
	case CtrDirectReclaims:
		return "mem.direct_reclaims"
	case CtrOOMKills:
		return "mem.oom_kills"
	case CtrEventsDropped:
		return "faults.events_dropped"
	case CtrEventsDelayed:
		return "faults.events_delayed"
	case CtrUpdatesLagged:
		return "faults.updates_lagged"
	case CtrUpdatesMissed:
		return "faults.updates_missed"
	case CtrLimitChurns:
		return "faults.limit_churns"
	case CtrKills:
		return "faults.kills"
	case CtrStaleFallbacks:
		return "sysns.staleness_fallbacks"
	case CtrStalenessMax:
		return "sysns.staleness_max_ns"
	case CtrRecomputeRetries:
		return "sysns.recompute_retries"
	case CtrSnapshotsPublished:
		return "sysns.snapshots_published"
	case CtrSnapshotReads:
		return "views.reads_served"
	case CtrSnapshotLagMax:
		return "views.snapshot_lag_max_ns"
	case CtrPlacements:
		return "cluster.placements"
	case CtrMigrations:
		return "cluster.migrations"
	case CtrMigrationMS:
		return "cluster.migration_ms"
	case CtrRebalanceRounds:
		return "cluster.rebalance_rounds"
	case CtrAutoscaleResizes:
		return "autoscaler.resizes"
	case CtrAutoscaleClamped:
		return "autoscaler.clamped"
	case CtrAutoscaleBankSpentMS:
		return "autoscaler.bank_spent_ms"
	case CtrTickRepairs:
		return "cfs.tick_repairs"
	case CtrTickRebuilds:
		return "cfs.tick_rebuilds"
	case CtrBoundsFlushes:
		return "sysns.bounds_flushes"
	case CtrBoundsRecomputed:
		return "sysns.bounds_recomputed"
	case CtrWindowSettles:
		return "cfs.window_settles"
	default:
		return fmt.Sprintf("Counter(%d)", int(c))
	}
}

// DefaultRingSize is the event capacity used when New is given a
// non-positive size.
const DefaultRingSize = 4096

// Tracer collects counters and, when it has a ring, events. The zero
// value counts and records no events: it is the tracer every component
// is built with.
type Tracer struct {
	ring []Event
	// cur is the next slot to overwrite once the ring is full: emitted
	// mod cap(ring), kept by wrapping instead of dividing.
	cur      int
	emitted  uint64
	counters [numCounters]uint64
}

// New returns a Tracer whose ring holds size events (DefaultRingSize if
// size <= 0). Older events are overwritten once the ring is full.
func New(size int) *Tracer {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Tracer{ring: make([]Event, 0, size)}
}

// Enabled reports whether the tracer records events, i.e. has a ring.
// It is the guard hot paths use before building event arguments that
// cost real work; counters count either way.
func (t *Tracer) Enabled() bool { return cap(t.ring) > 0 }

// Emit records one event. It returns at once on a tracer without a
// ring.
func (t *Tracer) Emit(at sim.Time, kind Kind, actor string, a, b int64) {
	if cap(t.ring) == 0 {
		return
	}
	e := Event{At: at, Kind: kind, Actor: actor, A: a, B: b}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.cur] = e
	}
	if t.cur++; t.cur == cap(t.ring) {
		t.cur = 0
	}
	t.emitted++
}

// Add increments a counter by n.
func (t *Tracer) Add(c Counter, n uint64) { t.counters[c] += n }

// Max raises a counter to v if v exceeds its current value. It exists
// for high-watermark metrics (CtrStalenessMax) that Add's monotonic
// accumulation cannot express.
func (t *Tracer) Max(c Counter, v uint64) {
	if v > t.counters[c] {
		t.counters[c] = v
	}
}

// Count returns a counter's value.
func (t *Tracer) Count(c Counter) uint64 { return t.counters[c] }

// Counters returns all counters as a name → value map.
func (t *Tracer) Counters() map[string]uint64 {
	out := make(map[string]uint64)
	for c := Counter(0); c < numCounters; c++ {
		out[c.String()] = t.counters[c]
	}
	return out
}

// Emitted returns how many events were recorded in total, including
// any that have since been overwritten (0 on a tracer without a ring).
func (t *Tracer) Emitted() uint64 { return t.emitted }

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 { return t.emitted - uint64(len(t.ring)) }

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if len(t.ring) == 0 {
		return nil
	}
	out := make([]Event, 0, len(t.ring))
	if t.emitted > uint64(len(t.ring)) {
		// Ring has wrapped: oldest entry sits at the write cursor.
		out = append(out, t.ring[t.cur:]...)
		out = append(out, t.ring[:t.cur]...)
		return out
	}
	return append(out, t.ring...)
}

// EventsOf returns the retained events of one kind, oldest-first.
func (t *Tracer) EventsOf(kind Kind) []Event {
	var out []Event
	for _, e := range t.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Reset clears events and counters, keeping the ring capacity.
func (t *Tracer) Reset() {
	t.ring = t.ring[:0]
	t.cur = 0
	t.emitted = 0
	t.counters = [numCounters]uint64{}
}
