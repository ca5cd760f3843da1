// Package autoscaler closes the paper's control loop: a deterministic
// vertical autoscaler that watches per-container usage and pressure
// through the published lock-free ViewSnapshots (never by reaching into
// the monitor) and resizes cpu quota and memory limits online through
// the cgroup control-file write path, so every resize is a limit-change
// event that rides the §10 trigger-atomicity rule and the incremental
// recompute exactly like an administrator's write would.
//
// The engine is policy-pluggable (see Policy in policy.go): Static is
// the inert reference arm, Target the ARC-V-style usage-tracking
// resizer, SharesOnly the "CPU limits considered harmful" arm that
// replaces the quota with proportional shares, and Banked the
// burstable-quota arm that accrues unused quota and spends it on
// bursts. Policies are pure functions of their Input; all mutable
// per-target state (usage cursors, the quota bank, resize direction
// memory) lives in the engine, is RNG-free, and is private to one
// host — so goldens hold at any parallelism width.
//
// Guard rails are enforced centrally, not per policy: every requested
// cpu allocation is clamped into the target's [MinCPUs, MaxCPUs] range,
// a relative deadband (Config.Hysteresis) suppresses resizes too small
// to matter, and a direction damper refuses to reverse the previous
// round's resize on the immediately following round. A suppressed
// resize also rolls back the round's quota-bank movement, so the bank
// only pays for boosts that actually happen. The property test in
// property_test.go drives exactly these rules.
//
// Reads are snapshot-only and version-monotone: each control round
// loads Monitor.Snapshot once, asserts the version never regresses, and
// skips targets for which no newer snapshot has been cut (no new
// information, no action). When a snapshot reports a container's view
// Degraded — the sysns staleness fallback engaged — the active policies
// degrade to their conservative arm: hold (Target, SharesOnly) or
// revert to the baseline allocation (Banked). See DESIGN.md §13.
package autoscaler

import (
	"fmt"
	"math"
	"time"

	"arv/internal/host"
	"arv/internal/sim"
	"arv/internal/sysns"
	"arv/internal/telemetry"
	"arv/internal/units"
)

// SharesPerCPU is the cpu.shares weight the shares-only path writes per
// CPU of desired allocation (the kernel's default 1024-shares-per-CPU
// convention).
const SharesPerCPU = 1024

// DefaultInterval separates control rounds when Config.Interval is not
// set.
const DefaultInterval = 250 * time.Millisecond

// DefaultHysteresis is the relative resize deadband when
// Config.Hysteresis is not set: requested allocations within 10% of the
// current one are suppressed.
const DefaultHysteresis = 0.1

// Spec declares one managed container and the clamps its resizes must
// respect.
type Spec struct {
	// Name is the container (cgroup) name. Resolution happens at each
	// control round, so a spec survives kill/restart cycles: while the
	// target is absent the round is a no-op, and a reappearing target
	// is re-adopted from scratch.
	Name string
	// MinCPUs and MaxCPUs clamp the cpu allocation policies may write
	// (quota CPUs, or shares/SharesPerCPU under a shares-only policy).
	// Zero MinCPUs defaults to 0.1; zero MaxCPUs defaults to the host
	// CPU count.
	MinCPUs, MaxCPUs float64
	// MinMem and MaxMem clamp the hard memory limit. MaxMem == 0
	// leaves memory unmanaged for this target regardless of policy.
	MinMem, MaxMem units.Bytes
}

// Config sizes an autoscaler. The zero value attaches an inert
// autoscaler (nil Policy ≡ Static).
type Config struct {
	// Interval separates control rounds (default DefaultInterval).
	Interval time.Duration
	// Hysteresis is the relative deadband: a requested allocation
	// within Hysteresis × current of the current one is not applied
	// (default DefaultHysteresis).
	Hysteresis float64
	// Policy decides resizes. nil and Static are equivalent: no
	// control timer is armed, no snapshot is ever read, and the
	// attached autoscaler is byte-identical to none at all (asserted
	// by the zero-config identity test).
	Policy Policy
	// Specs are the containers managed from the start; Manage adds
	// more at runtime.
	Specs []Spec
}

// Autoscaler is the control loop: its rounds fire on the virtual
// clock's timer queue, and it counts and emits into the host's tracer
// (h.Trace). All methods must be called from the simulation goroutine.
type Autoscaler struct {
	h    *host.Host
	cfg  Config
	noop bool

	specs  []Spec
	states []state

	rounds       uint64
	lastVersion  uint64
	conservative uint64
	held         uint64
}

// state is the engine's per-target mutable memory. It is deliberately
// plain data — no pointers into the host — so the property test can
// drive decideOne with synthetic inputs.
type state struct {
	init            bool
	lastAt          sim.Time // cut time of the last consumed snapshot
	lastUsageNS     int64
	lastThrottledNS int64
	curCPUs         float64 // allocation we last wrote (or adopted)
	baseCPUs        float64 // allocation adopted at init (Banked's baseline)
	bankMS          int64   // quota bank, CPU-milliseconds
	lastDir         int8    // sign of the last applied resize
	lastDirRound    uint64  // round the last resize was applied in
}

// Attach builds an autoscaler over h and — unless the policy is inert —
// arms the periodic control timer. With a nil or Static policy nothing
// is armed and no snapshot is ever read, so attaching changes no
// observable behavior (the same guarantee the zero-fault injector ships
// with).
func Attach(h *host.Host, cfg Config) *Autoscaler {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Hysteresis <= 0 {
		cfg.Hysteresis = DefaultHysteresis
	}
	a := &Autoscaler{h: h, cfg: cfg}
	if cfg.Policy == nil {
		a.noop = true
	} else if _, ok := cfg.Policy.(Static); ok {
		a.noop = true
	}
	for _, s := range cfg.Specs {
		a.Manage(s)
	}
	if !a.noop {
		h.Clock.Every(cfg.Interval, a.round)
	}
	return a
}

// Manage adds a container to the managed set, applying the Spec
// defaults (MinCPUs 0.1, MaxCPUs = host CPU count).
func (a *Autoscaler) Manage(s Spec) {
	if s.Name == "" {
		panic("autoscaler: empty spec name")
	}
	if s.MinCPUs <= 0 {
		s.MinCPUs = 0.1
	}
	if s.MaxCPUs <= 0 {
		s.MaxCPUs = float64(a.h.Sched.NCPU())
	}
	if s.MaxCPUs < s.MinCPUs || s.MaxMem < s.MinMem {
		panic("autoscaler: inverted spec range for " + s.Name)
	}
	a.specs = append(a.specs, s)
	a.states = append(a.states, state{})
}

// Policy returns the configured policy (nil when attached without one).
func (a *Autoscaler) Policy() Policy { return a.cfg.Policy }

// Rounds returns how many control rounds have run.
func (a *Autoscaler) Rounds() uint64 { return a.rounds }

// ConservativeRounds returns how many per-target rounds degraded to the
// policy's conservative arm because the target's view was marked
// Degraded (the sysns staleness fallback had engaged).
func (a *Autoscaler) ConservativeRounds() uint64 { return a.conservative }

// HeldRounds returns how many per-target rounds were skipped because no
// snapshot newer than the last consumed one had been published (no new
// information, no action).
func (a *Autoscaler) HeldRounds() uint64 { return a.held }

// round is one control pass over every managed target, fired by the
// periodic timer.
func (a *Autoscaler) round(now sim.Time) {
	snap := a.h.Monitor.Snapshot()
	if snap.Version < a.lastVersion {
		panic(fmt.Sprintf("autoscaler: snapshot version regressed %d -> %d",
			a.lastVersion, snap.Version))
	}
	a.lastVersion = snap.Version
	a.rounds++
	for i := range a.specs {
		a.roundOne(now, snap, &a.specs[i], &a.states[i])
	}
}

// roundOne runs one target's control decision and applies any resulting
// writes through the cgroup control-file path.
func (a *Autoscaler) roundOne(now sim.Time, snap *sysns.ViewSnapshot, s *Spec, st *state) {
	cg := a.h.Cgroups.Lookup(s.Name)
	if cg == nil || cg.Removed() {
		st.init = false // killed or not yet created: re-adopt on (re)appearance
		return
	}
	gv := snap.Cgroup(s.Name)
	if gv == nil {
		st.init = false // not yet in a published snapshot
		return
	}
	if !st.init {
		// Adoption round: record cursors, take the configured quota as
		// the current and baseline allocation. No usage window exists
		// yet, so no decision is made.
		*st = state{
			init:            true,
			lastAt:          snap.At,
			lastUsageNS:     gv.UsageNS,
			lastThrottledNS: gv.ThrottledNS,
			curCPUs:         units.Clamp(quotaCPUs(gv), s.MinCPUs, s.MaxCPUs),
		}
		st.baseCPUs = st.curCPUs
		return
	}
	window := time.Duration(snap.At - st.lastAt)
	if window <= 0 {
		a.held++ // no snapshot cut since the last round: hold
		return
	}
	in := Input{
		Interval:  window,
		UsedCPUs:  usedCPUs(gv.UsageNS-st.lastUsageNS, window),
		QuotaCPUs: quotaCPUs(gv),
		BaseCPUs:  st.baseCPUs,
		BankMS:    st.bankMS,
		Throttled: gv.ThrottledNS > st.lastThrottledNS,
		Resident:  gv.Resident,
		HardLimit: gv.HardLimit,
	}
	if cv := snap.Container(s.Name); cv != nil {
		in.Degraded = cv.Degraded
		in.EffectiveCPU = cv.EffectiveCPU
		in.LowerCPU = cv.LowerCPU
	}
	st.lastAt = snap.At
	st.lastUsageNS = gv.UsageNS
	st.lastThrottledNS = gv.ThrottledNS

	act := decideOne(a.cfg.Policy, *s, a.cfg.Hysteresis, a.rounds, st, in)
	tr := a.h.Trace
	if act.conservative {
		a.conservative++
	}
	if act.clamped {
		tr.Add(telemetry.CtrAutoscaleClamped, 1)
	}
	if act.bankSpentMS > 0 {
		tr.Add(telemetry.CtrAutoscaleBankSpentMS, uint64(act.bankSpentMS))
	}
	wrote := false
	if act.writeCPU {
		if act.sharesOnly {
			if cg.CPU.QuotaUS >= 0 {
				cg.SetQuota(-1, cg.CPU.PeriodUS) // remove the bandwidth limit
				wrote = true
			}
			if sh := sharesFor(act.cpus); sh != cg.CPU.Shares {
				cg.SetShares(sh)
				wrote = true
			}
		} else {
			cg.SetQuotaCPUs(act.cpus)
			wrote = true
		}
		if wrote {
			tr.Add(telemetry.CtrAutoscaleResizes, 1)
		}
	}
	if act.writeMem {
		cg.SetMemLimits(act.memHard, act.memSoft)
		tr.Add(telemetry.CtrAutoscaleResizes, 1)
		wrote = true
	}
	if wrote {
		tr.Emit(now, telemetry.KindResize, s.Name,
			int64(act.cpus*1000), act.bankSpentMS)
	}
}

// action is decideOne's outcome: what the engine should write, plus the
// bookkeeping the telemetry layer and the property test consume.
type action struct {
	writeCPU     bool
	cpus         float64
	sharesOnly   bool
	writeMem     bool
	memHard      units.Bytes
	memSoft      units.Bytes
	clamped      bool
	conservative bool
	bankSpentMS  int64
}

// decideOne runs one target's full control decision: the policy, then
// the engine's guard rails (clamps, hysteresis deadband, direction
// damping, bank bookkeeping). It is a pure function of its arguments —
// all mutable state lives in st — which is exactly what the property
// test exploits to drive millions of synthetic rounds without a host.
func decideOne(p Policy, s Spec, hyst float64, round uint64, st *state, in Input) action {
	d := p.Decide(in)
	if d.BankMS < 0 {
		panic("autoscaler: policy drove the quota bank negative")
	}
	var act action
	st.bankMS = d.BankMS
	act.bankSpentMS = d.BankSpentMS
	act.conservative = d.Conservative

	if d.MemHard > 0 && s.MaxMem > 0 {
		hard := units.ClampBytes(d.MemHard, s.MinMem, s.MaxMem)
		if hard != d.MemHard {
			act.clamped = true
		}
		if hard != in.HardLimit {
			act.writeMem = true
			act.memHard = hard
			act.memSoft = hard / 2
		}
	}
	if !d.Resize {
		return act
	}
	cpus := units.Clamp(d.CPUs, s.MinCPUs, s.MaxCPUs)
	if cpus != d.CPUs {
		act.clamped = true
	}
	diff := cpus - st.curCPUs
	var dir int8
	switch {
	case diff > 0:
		dir = 1
	case diff < 0:
		dir = -1
	default:
		return act // already there; bank movement (a continuing burst) stands
	}
	suppressed := math.Abs(diff) < hyst*st.curCPUs || // deadband
		(st.lastDir != 0 && dir == -st.lastDir && round == st.lastDirRound+1) // damping
	if suppressed {
		// A resize that does not happen spends nothing: roll back the
		// round's bank movement so the bank only pays for real boosts.
		st.bankMS = in.BankMS
		act.bankSpentMS = 0
		return act
	}
	act.writeCPU = true
	act.cpus = cpus
	act.sharesOnly = d.SharesOnly
	st.curCPUs = cpus
	st.lastDir = dir
	st.lastDirRound = round
	return act
}

// quotaCPUs converts a snapshot cgroup view's bandwidth limit to CPUs
// (+Inf when unlimited).
func quotaCPUs(gv *sysns.CgroupView) float64 {
	if gv.QuotaUS < 0 {
		return math.Inf(1)
	}
	return float64(gv.QuotaUS) / float64(gv.PeriodUS)
}

// usedCPUs converts a cumulative-usage delta over a window to a mean
// CPU rate. A negative delta (the cgroup was recreated between rounds)
// reads as zero.
func usedCPUs(deltaNS int64, window time.Duration) float64 {
	if deltaNS <= 0 || window <= 0 {
		return 0
	}
	return float64(deltaNS) / float64(window.Nanoseconds())
}

// sharesFor converts a desired CPU allocation to cpu.shares at
// SharesPerCPU, with a floor of 2 (SetShares rejects non-positive
// weights).
func sharesFor(cpus float64) int64 {
	sh := int64(cpus*SharesPerCPU + 0.5)
	if sh < 2 {
		sh = 2
	}
	return sh
}

// String summarizes the autoscaler for diagnostics.
func (a *Autoscaler) String() string {
	name := "static"
	if a.cfg.Policy != nil {
		name = a.cfg.Policy.Name()
	}
	return fmt.Sprintf("autoscaler{policy=%s interval=%v targets=%d}",
		name, a.cfg.Interval, len(a.specs))
}
