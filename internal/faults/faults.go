// Package faults is a deterministic, seed-driven fault-injection layer
// for the simulated host. The paper's value proposition rests on
// ns_monitor keeping every container's effective-resource view fresh;
// this package perturbs exactly the paths that freshness depends on and
// lets experiments measure the damage — and the recovery the
// graceful-degradation machinery in internal/sysns buys back.
//
// Four fault classes are modeled:
//
//   - event faults: cgroup limit-change notifications are dropped or
//     delayed before ns_monitor sees them (the paper's modified-cgroups
//     callback being lost or late);
//   - monitor faults: periodic Algorithm 1+2 rounds are postponed
//     (update lag — a slow or preempted ns_monitor kernel thread) or
//     skipped outright (missed recompute periods);
//   - limit churn: cpu-quota and memory limits of live cgroups are
//     rewritten on a schedule, as an orchestrator's vertical-scaling
//     controller would (see ARC-V in PAPERS.md);
//   - lifecycle faults: containers are killed mid-run and optionally
//     restarted with the same spec.
//
// The injector has no per-tick work: every fault rides the virtual
// clock's timer queue or the cgroup event bus. It draws every
// probabilistic decision from its own sim.RNG, so the same seed yields
// the same fault schedule, runs are bit-reproducible, and — because the
// injector never touches the host's RNG — a zero-fault injector is
// byte-identical to no injector at all (asserted by
// TestZeroFaultInjectorIsByteIdentical).
//
// Invariants:
//
//   - lifecycle events (Created/Removed) are never dropped or delayed —
//     only CPUChanged/MemChanged are fault candidates (see
//     cgroups.Interceptor);
//   - all fault timing rides the virtual clock's timer queue, so faults
//     land on tick boundaries;
//   - with Config's zero value and no rules armed, the injector draws
//     no random numbers and perturbs nothing.
package faults

import (
	"fmt"
	"math"
	"time"

	"arv/internal/cgroups"
	"arv/internal/container"
	"arv/internal/host"
	"arv/internal/sim"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// Config selects the always-on (schedule-free) fault classes. The zero
// value injects nothing. Churn and kill faults are rule-driven; see
// ChurnRule and KillRule.
type Config struct {
	// Seed seeds the injector's private RNG. The fault schedule is a
	// pure function of the seed and the sequence of perturbable
	// instants, so equal seeds give equal schedules.
	Seed uint64

	// EventDropProb is the probability a cgroup limit-change event is
	// dropped before ns_monitor sees it.
	EventDropProb float64
	// EventDelay defers each (non-dropped) limit-change event by this
	// much virtual time before redelivery; EventDelayJitter spreads the
	// delay multiplicatively in [1-j, 1+j].
	EventDelay       time.Duration
	EventDelayJitter float64

	// UpdateLag postpones every periodic ns_monitor round by this much,
	// stretching the effective update interval to period+lag;
	// UpdateLagJitter spreads it like EventDelayJitter.
	UpdateLag       time.Duration
	UpdateLagJitter float64
	// UpdateMissProb is the probability a periodic round is skipped
	// outright (a missed recompute period).
	UpdateMissProb float64
}

// ChurnRule rewrites a cgroup's limits on a schedule. Each firing picks
// fresh values uniformly from the configured ranges; a range left zero
// is not churned.
type ChurnRule struct {
	// Target is the cgroup (container or pod) name. A firing resolves
	// it whenever no live cgroup is cached, so the rule survives
	// kill/restart cycles and picks up a target created later; firings
	// while the target does not exist are no-ops that still consume the
	// same random draws (keeping the schedule aligned).
	Target string
	// Interval separates firings; Jitter spreads it multiplicatively.
	Interval time.Duration
	Jitter   float64
	// MinQuotaCPUs/MaxQuotaCPUs churn cfs_quota_us (at the default
	// 100 ms period) within [min, max] CPUs when MaxQuotaCPUs > 0.
	MinQuotaCPUs, MaxQuotaCPUs float64
	// MinMemHard/MaxMemHard churn the hard memory limit within
	// [min, max] when MaxMemHard > 0; the soft limit follows at
	// SoftFrac of the hard limit (default 0.5).
	MinMemHard, MaxMemHard units.Bytes
	SoftFrac               float64
	// Count bounds the number of firings (0 = until the run ends).
	Count int
}

// KillRule destroys a container at a virtual-time offset and optionally
// recreates it.
type KillRule struct {
	// Target is the container name.
	Target string
	// At is the kill instant, measured from when the rule is scheduled.
	At time.Duration
	// Restart recreates the container (same spec, fresh cgroup and
	// sys_namespace) after RestartDelay and re-execs its init command.
	Restart      bool
	RestartDelay time.Duration
	// OnRestart, when set, runs after the restarted container exists —
	// the hook experiments use to relaunch the workload that died with
	// the container.
	OnRestart func(*container.Container)
}

// Injector is the fault layer: its faults are armed by Attach (from a
// Config) or incrementally via the Set/Start/Schedule methods, and it
// counts and emits into the host's tracer (h.Trace). All methods must
// be called from the simulation goroutine.
type Injector struct {
	h   *host.Host
	cfg Config
	rng *sim.RNG
}

// Attach builds an injector over h and installs its interceptors on the
// cgroup event bus and the ns_monitor update path. The interceptors are
// pure pass-throughs until a fault class is configured, so attaching
// with a zero Config changes no observable behavior.
func Attach(h *host.Host, cfg Config) *Injector {
	inj := &Injector{h: h, cfg: cfg, rng: sim.NewRNG(cfg.Seed)}
	h.Cgroups.Intercept(inj.interceptEvent)
	h.Monitor.SetUpdateInterceptor(inj.interceptUpdate)
	return inj
}

// Reseed resets the injector's RNG. Faults already scheduled keep their
// deadlines; only future random draws change.
func (inj *Injector) Reseed(seed uint64) { inj.rng = sim.NewRNG(seed) }

// SetEventFaults reconfigures the event-path faults at runtime.
func (inj *Injector) SetEventFaults(dropProb float64, delay time.Duration, jitter float64) {
	inj.cfg.EventDropProb = dropProb
	inj.cfg.EventDelay = delay
	inj.cfg.EventDelayJitter = jitter
}

// SetMonitorFaults reconfigures the ns_monitor update faults at
// runtime.
func (inj *Injector) SetMonitorFaults(lag time.Duration, jitter, missProb float64) {
	inj.cfg.UpdateLag = lag
	inj.cfg.UpdateLagJitter = jitter
	inj.cfg.UpdateMissProb = missProb
}

// interceptEvent is the cgroups.Interceptor: it sees every limit-change
// event before ns_monitor does and drops or defers it per the config.
func (inj *Injector) interceptEvent(e cgroups.Event) bool {
	tr := inj.h.Trace
	if p := inj.cfg.EventDropProb; p > 0 && inj.rng.Float64() < p {
		tr.Add(telemetry.CtrEventsDropped, 1)
		tr.Emit(inj.h.Now(), telemetry.KindFault, "event-drop", int64(e.Kind), 0)
		return false
	}
	if d := inj.jittered(inj.cfg.EventDelay, inj.cfg.EventDelayJitter); d > 0 {
		tr.Add(telemetry.CtrEventsDelayed, 1)
		tr.Emit(inj.h.Now(), telemetry.KindFault, "event-delay", int64(e.Kind), int64(d))
		ev := e
		inj.h.Clock.After(d, func(sim.Time) {
			if !ev.Cgroup.Removed() {
				inj.h.Cgroups.Redeliver(ev)
			}
		})
		return false
	}
	return true
}

// interceptUpdate is the sysns.UpdateInterceptor: it postpones or skips
// periodic update rounds per the config.
func (inj *Injector) interceptUpdate(now sim.Time) (time.Duration, bool) {
	tr := inj.h.Trace
	if p := inj.cfg.UpdateMissProb; p > 0 && inj.rng.Float64() < p {
		tr.Add(telemetry.CtrUpdatesMissed, 1)
		tr.Emit(now, telemetry.KindFault, "update-miss", 0, 0)
		return 0, true
	}
	if d := inj.jittered(inj.cfg.UpdateLag, inj.cfg.UpdateLagJitter); d > 0 {
		tr.Add(telemetry.CtrUpdatesLagged, 1)
		tr.Emit(now, telemetry.KindFault, "update-lag", int64(d), 0)
		return d, false
	}
	return 0, false
}

// jittered spreads d multiplicatively in [1-j, 1+j], rounded to the
// host tick so perturbed deadlines stay on the tick grid. Zero d draws
// nothing.
func (inj *Injector) jittered(d time.Duration, j float64) time.Duration {
	if d <= 0 {
		return 0
	}
	if j > 0 {
		d = time.Duration(inj.rng.Jitter(float64(d), j))
		tick := inj.h.Tick()
		if d < tick {
			d = tick
		} else {
			d = d.Round(tick)
		}
	}
	return d
}

// StartChurn arms a churn rule. The first firing is one interval away.
func (inj *Injector) StartChurn(r ChurnRule) {
	s := inj.newChurn(r)
	inj.h.Clock.Arm(&s.alarm, inj.jittered(r.Interval, r.Jitter), s)
}

// newChurn checks r and builds its unarmed record.
func (inj *Injector) newChurn(r ChurnRule) *churnState {
	if r.Interval <= 0 {
		panic("faults: non-positive churn interval")
	}
	if r.MaxQuotaCPUs < r.MinQuotaCPUs || r.MaxMemHard < r.MinMemHard {
		panic("faults: inverted churn range")
	}
	if r.SoftFrac <= 0 {
		r.SoftFrac = 0.5
	}
	return &churnState{
		inj:      inj,
		count:    r.Count,
		interval: r.Interval,
		jitter:   r.Jitter,
		minQuota: r.MinQuotaCPUs, maxQuota: r.MaxQuotaCPUs,
		minHard: r.MinMemHard, maxHard: r.MaxMemHard,
		softFrac: r.SoftFrac,
		target:   r.Target,
	}
}

// churnState is one armed churn rule: a single allocation holding its
// timer, its cached target and its firing count, so a firing touches
// one record. The fields Fire reads every time follow the alarm's
// queue links; target, read only to resolve the cgroup, comes last.
type churnState struct {
	alarm sim.Alarm
	inj   *Injector
	// cg caches the live target. Names are unique among live cgroups,
	// so a cached live target is the cgroup Lookup would return.
	cg                 *cgroups.Cgroup
	fired, count       int
	interval           time.Duration
	jitter             float64
	minQuota, maxQuota float64
	minHard, maxHard   units.Bytes
	softFrac           float64
	target             string
}

// Warm loads what the next Fire reads: the record past its alarm, the
// cached target, the header of its cfs group and its memory limits. The
// clock calls it for a due batch before firing it, so the batch's cache
// misses overlap. It only reads: with no cached target, or a destroyed
// one that Fire will look up again, it stops there, and it never draws
// from the RNG or calls Lookup.
func (s *churnState) Warm() uintptr {
	v := uintptr(s.count) + uintptr(math.Float64bits(s.maxQuota)) + uintptr(math.Float64bits(s.softFrac))
	cg := s.cg
	if cg == nil || cg.Removed() {
		return v
	}
	// Shares and CpusetN open and close the group's header (cfs.Group),
	// so the two loads cover every line it spans.
	return v + uintptr(cg.CPU.Shares) + uintptr(cg.CPU.CpusetN) + uintptr(cg.Mem.HardLimit)
}

// Fire applies one churn firing and re-arms the rule until its Count
// is spent.
func (s *churnState) Fire(now sim.Time) {
	inj := s.inj
	cg := s.cg
	if cg == nil || cg.Removed() {
		cg = inj.h.Cgroups.Lookup(s.target)
		s.cg = cg
	}
	// Draw before the existence check so the schedule is identical
	// whether or not the target is alive at this instant.
	var quota float64
	var hard units.Bytes
	if s.maxQuota > 0 {
		quota = s.minQuota + inj.rng.Float64()*(s.maxQuota-s.minQuota)
	}
	if s.maxHard > 0 {
		hard = s.minHard + units.Bytes(inj.rng.Float64()*float64(s.maxHard-s.minHard))
	}
	if cg != nil && !cg.Removed() {
		tr := inj.h.Trace
		if s.maxQuota > 0 {
			cg.SetQuotaCPUs(quota)
			tr.Add(telemetry.CtrLimitChurns, 1)
			tr.Emit(now, telemetry.KindFault, "churn", int64(quota*1000), 0)
		}
		if s.maxHard > 0 {
			cg.SetMemLimits(hard, units.Bytes(float64(hard)*s.softFrac))
			tr.Add(telemetry.CtrLimitChurns, 1)
			tr.Emit(now, telemetry.KindFault, "churn", 0, int64(hard))
		}
	}
	s.fired++
	if s.count == 0 || s.fired < s.count {
		s.alarm.Reset(inj.jittered(s.interval, s.jitter))
	}
}

// ScheduleKill arms a kill(-and-restart) rule.
func (inj *Injector) ScheduleKill(r KillRule) {
	if r.At < 0 {
		panic("faults: negative kill offset")
	}
	inj.h.Clock.After(r.At, func(now sim.Time) {
		var victim *container.Container
		for _, c := range inj.h.Runtime.Containers() {
			if c.Name == r.Target {
				victim = c
				break
			}
		}
		if victim == nil {
			return
		}
		spec := victim.Spec
		cmd := victim.Command()
		inj.h.Runtime.Destroy(victim)
		tr := inj.h.Trace
		tr.Add(telemetry.CtrKills, 1)
		tr.Emit(now, telemetry.KindFault, "kill", 0, 0)
		if !r.Restart {
			return
		}
		restart := func(at sim.Time) {
			nc := inj.h.Runtime.Create(spec)
			nc.Exec(cmd)
			inj.h.Trace.Emit(at, telemetry.KindFault, "restart", 0, 0)
			if r.OnRestart != nil {
				r.OnRestart(nc)
			}
		}
		if r.RestartDelay > 0 {
			inj.h.Clock.After(r.RestartDelay, restart)
		} else {
			restart(now)
		}
	})
}

// String summarizes the armed schedule-free faults for diagnostics.
func (inj *Injector) String() string {
	return fmt.Sprintf("faults{seed=%d drop=%.2f delay=%v lag=%v miss=%.2f}",
		inj.cfg.Seed, inj.cfg.EventDropProb, inj.cfg.EventDelay,
		inj.cfg.UpdateLag, inj.cfg.UpdateMissProb)
}
